let perimeter r = 2. *. Float.pi *. r
let area ?(scale = 1.) r = scale *. Float.pi *. r *. r
let check r = r >= 0.
let helper x = x + 1

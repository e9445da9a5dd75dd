let to_float = float_of_int
let connect ?(retries = 1) host = ignore (retries, host)
let render = string_of_int
let dump () = ""
let trace () = ()
let limit ?(cap = 10) x = min cap x
let reset ~drop = ignore drop
let scale ~factor x = factor * x

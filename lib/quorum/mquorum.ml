type t = { n : int; m : int; f : int }

let exists ~n ~m ~f = n >= (2 * f) + m
let max_f ~n ~m = (n - m) / 2

let create_f ~n ~m ~f =
  if m < 1 || m > n then invalid_arg "Quorum.Mquorum: need 1 <= m <= n";
  if f < 0 then invalid_arg "Quorum.Mquorum: negative f";
  if not (exists ~n ~m ~f) then
    invalid_arg
      (Printf.sprintf
         "Quorum.Mquorum: no m-quorum system for n=%d m=%d f=%d (need n >= \
          2f+m)"
         n m f);
  { n; m; f }

let create ~n ~m = create_f ~n ~m ~f:(max_f ~n ~m)

let f t = t.f
let quorum_size t = t.n - t.f

let distinct_in_range t ids =
  let seen = Array.make t.n false in
  List.for_all
    (fun id ->
      id >= 0 && id < t.n
      &&
      if seen.(id) then false
      else begin
        seen.(id) <- true;
        true
      end)
    ids

let is_quorum t ids =
  distinct_in_range t ids && List.length ids >= quorum_size t

let check_intersection t q1 q2 =
  let inter = List.filter (fun x -> List.mem x q2) (List.sort_uniq compare q1) in
  List.length inter >= t.m

let pp fmt t = Format.fprintf fmt "m-quorum(n=%d, m=%d, f=%d)" t.n t.m t.f

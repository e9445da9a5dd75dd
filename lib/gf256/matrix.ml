(* Row-major dense matrices over GF(2^8). *)

type t = { rows : int; cols : int; data : int array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Gf256.Matrix.create: bad shape";
  { rows; cols; data = Array.make (rows * cols) 0 }

let rows a = a.rows

let check_bounds a r c =
  if r < 0 || r >= a.rows || c < 0 || c >= a.cols then
    invalid_arg
      (Printf.sprintf "Gf256.Matrix: index (%d,%d) out of %dx%d" r c a.rows
         a.cols)

let get a r c =
  check_bounds a r c;
  a.data.((r * a.cols) + c)

let set a r c v =
  check_bounds a r c;
  Field.check_element v;
  a.data.((r * a.cols) + c) <- v

let init ~rows ~cols f =
  let a = create ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      set a r c (f r c)
    done
  done;
  a

let identity n = init ~rows:n ~cols:n (fun r c -> if r = c then 1 else 0)
let copy a = { a with data = Array.copy a.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Gf256.Matrix.mul: shape mismatch";
  init ~rows:a.rows ~cols:b.cols (fun r c ->
      let acc = ref 0 in
      for k = 0 to a.cols - 1 do
        acc :=
          Field.add !acc
            (Field.mul a.data.((r * a.cols) + k) b.data.((k * b.cols) + c))
      done;
      !acc)

let sub_rows a rs =
  let nrows = List.length rs in
  if nrows = 0 then invalid_arg "Gf256.Matrix.sub_rows: empty selection";
  let b = create ~rows:nrows ~cols:a.cols in
  List.iteri
    (fun i r ->
      check_bounds a r 0;
      Array.blit a.data (r * a.cols) b.data (i * a.cols) a.cols)
    rs;
  b

(* Gauss-Jordan elimination with partial pivoting (any non-zero pivot
   works over a field; we take the first). Works on [a | I] in place. *)
let invert a =
  if a.rows <> a.cols then invalid_arg "Gf256.Matrix.invert: not square";
  let n = a.rows in
  let w = copy a in
  let inv = identity n in
  let swap_rows m r1 r2 =
    if r1 <> r2 then
      for c = 0 to n - 1 do
        let t = m.data.((r1 * n) + c) in
        m.data.((r1 * n) + c) <- m.data.((r2 * n) + c);
        m.data.((r2 * n) + c) <- t
      done
  in
  let exception Singular in
  try
    for col = 0 to n - 1 do
      (* Find a pivot at or below the diagonal. *)
      let pivot = ref (-1) in
      (try
         for r = col to n - 1 do
           if w.data.((r * n) + col) <> 0 then begin
             pivot := r;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot < 0 then raise Singular;
      swap_rows w col !pivot;
      swap_rows inv col !pivot;
      (* Scale the pivot row to put 1 on the diagonal. *)
      let p = w.data.((col * n) + col) in
      let pinv = Field.inv p in
      for c = 0 to n - 1 do
        w.data.((col * n) + c) <- Field.mul w.data.((col * n) + c) pinv;
        inv.data.((col * n) + c) <- Field.mul inv.data.((col * n) + c) pinv
      done;
      (* Eliminate the column everywhere else. *)
      for r = 0 to n - 1 do
        if r <> col then begin
          let factor = w.data.((r * n) + col) in
          if factor <> 0 then
            for c = 0 to n - 1 do
              w.data.((r * n) + c) <-
                Field.add
                  w.data.((r * n) + c)
                  (Field.mul factor w.data.((col * n) + c));
              inv.data.((r * n) + c) <-
                Field.add
                  inv.data.((r * n) + c)
                  (Field.mul factor inv.data.((col * n) + c))
            done
        end
      done
    done;
    Some inv
  with Singular -> None

let cauchy ~xs ~ys =
  let rows = Array.length xs and cols = Array.length ys in
  init ~rows ~cols (fun r c ->
      let d = Field.add xs.(r) ys.(c) in
      if d = 0 then
        invalid_arg "Gf256.Matrix.cauchy: xs and ys are not disjoint";
      Field.inv d)

let equal a b = a.rows = b.rows && a.cols = b.cols && a.data = b.data

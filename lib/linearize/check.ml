type violation =
  | Read_of_unwritten of { op : int; value : string }
  | Future_read of { read_op : int; write_op : int; value : string }
  | Cycle of { values : string list; ops : (int * int) list }

let pp_violation fmt = function
  | Read_of_unwritten { op; value } ->
      Format.fprintf fmt "operation %d read a never-written value %S" op value
  | Future_read { read_op; write_op; value } ->
      Format.fprintf fmt
        "operation %d read value %S before write %d was invoked" read_op value
        write_op
  | Cycle { values; ops } ->
      Format.fprintf fmt "precedence cycle over values [%s] (op pairs: %s)"
        (String.concat "; " values)
        (String.concat "; "
           (List.map (fun (a, b) -> Printf.sprintf "%d<%d" a b) ops))

(* op1 happens-before op2: op1's return (or abort) event precedes
   op2's invocation. Partial operations never precede anything. *)
let precedes (r1 : History.record) (r2 : History.record) =
  match r1.History.returned_at with
  | Some t -> t < r2.History.invoked_at
  | None -> false

let strict h =
  let records = History.records h in
  let writers = Hashtbl.create 64 in
  List.iter
    (fun (r : History.record) ->
      match (r.kind, r.written) with
      | History.Write, Some v -> Hashtbl.replace writers v r
      | _ -> ())
    records;
  (* Observable values: successful reads and committed writes. *)
  let observable = Hashtbl.create 64 in
  let add_value v = if not (Hashtbl.mem observable v) then Hashtbl.add observable v () in
  let first_error = ref None in
  List.iter
    (fun (r : History.record) ->
      match (r.kind, r.status) with
      | History.Read, History.Returned v ->
          if v <> History.nil && not (Hashtbl.mem writers v) then (
            if !first_error = None then
              first_error := Some (Read_of_unwritten { op = r.id; value = v }))
          else add_value v
      | History.Write, History.Ok_written ->
          add_value (Option.get r.written)
      | _ -> ())
    records;
  match !first_error with
  | Some e -> Error e
  | None -> (
      add_value History.nil;
      (* Operations relevant to each observable value. *)
      let ops_of = Hashtbl.create 64 in
      let attach v (r : History.record) =
        if Hashtbl.mem observable v then
          Hashtbl.replace ops_of v
            (r :: (try Hashtbl.find ops_of v with Not_found -> []))
      in
      List.iter
        (fun (r : History.record) ->
          match (r.kind, r.status, r.written) with
          | History.Read, History.Returned v, _ -> attach v r
          | History.Write, _, Some v -> attach v r
          | _ -> ())
        records;
      let values =
        Hashtbl.fold (fun v () acc -> v :: acc) observable []
        |> List.sort String.compare
      in
      (* Build the strict precedence edges of Definition 5. *)
      let edges : (string, (string * (int * int)) list) Hashtbl.t =
        Hashtbl.create 64
      in
      let add_edge u w witness =
        let existing = try Hashtbl.find edges u with Not_found -> [] in
        if not (List.exists (fun (w', _) -> w' = w) existing) then
          Hashtbl.replace edges u ((w, witness) :: existing)
      in
      let future_read = ref None in
      List.iter
        (fun u ->
          List.iter
            (fun w ->
              if u <> w then
                let ops_u = try Hashtbl.find ops_of u with Not_found -> [] in
                let ops_w = try Hashtbl.find ops_of w with Not_found -> [] in
                List.iter
                  (fun (r1 : History.record) ->
                    List.iter
                      (fun (r2 : History.record) ->
                        if precedes r1 r2 then
                          (* Conditions (2)-(5): any happens-before
                             between an op of u and an op of w forces
                             u < w in the value order. *)
                          add_edge u w (r1.id, r2.id))
                      ops_w)
                  ops_u)
            values)
        values;
      List.iter
        (fun v ->
          if v <> History.nil then add_edge History.nil v (-1, -1))
        values;
      (* Condition (5) with v = v': a read of v wholly before v's
         write. *)
      List.iter
        (fun (r : History.record) ->
          match (r.kind, r.status) with
          | History.Read, History.Returned v when v <> History.nil -> (
              match Hashtbl.find_opt writers v with
              | Some w when precedes r w ->
                  if !future_read = None then
                    future_read :=
                      Some
                        (Future_read
                           { read_op = r.id; write_op = w.id; value = v })
              | _ -> ())
          | _ -> ())
        records;
      match !future_read with
      | Some e -> Error e
      | None -> (
          (* Cycle detection: iterative DFS with colors. *)
          let color = Hashtbl.create 64 in
          (* 0 = white, 1 = grey, 2 = black *)
          let get_color v = try Hashtbl.find color v with Not_found -> 0 in
          let cycle = ref None in
          let rec dfs path v =
            match get_color v with
            | 1 ->
                (* Found a back edge; extract the cycle from the path. *)
                if !cycle = None then begin
                  let rec take acc = function
                    | [] -> acc
                    | (v', w) :: rest ->
                        if v' = v then (v', w) :: acc
                        else take ((v', w) :: acc) rest
                  in
                  cycle := Some (take [] path)
                end
            | 2 -> ()
            | _ ->
                Hashtbl.replace color v 1;
                List.iter
                  (fun (w, witness) ->
                    if !cycle = None then dfs ((v, witness) :: path) w)
                  (try Hashtbl.find edges v with Not_found -> []);
                Hashtbl.replace color v 2
          in
          List.iter (fun v -> if !cycle = None then dfs [] v) values;
          match !cycle with
          | None -> Ok ()
          | Some path ->
              Error
                (Cycle
                   {
                     values = List.map fst path;
                     ops = List.map snd path;
                   })))

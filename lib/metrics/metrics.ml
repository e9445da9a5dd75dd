module Counter = struct
  (* One atomic cell: on mc every domain bumps the same counters (each
     sender counts its messages), and a plain read-add-write would
     lose increments. *)
  type t = float Atomic.t

  let create () = Atomic.make 0.

  let rec incr ?(by = 1.) t =
    let v = Atomic.get t in
    if not (Atomic.compare_and_set t v (v +. by)) then incr ~by t

  let value = Atomic.get
  let reset t = Atomic.set t 0.
end

module Hist = struct
  (* Log-bucketed (HDR-style) histogram over non-negative floats.

     A value [v = m * 2^e] (frexp decomposition, [0.5 <= m < 1]) lands
     in octave [e], sub-bucket [floor ((2m - 1) * 2^sub_bits)]. Every
     octave has [2^sub_bits] equal-width sub-buckets, so a bucket's
     width is at most [1 / 2^sub_bits] of any value it contains: the
     quantization (relative rank-to-value) error is bounded by
     [relative_error] regardless of the value range or the number of
     observations. Counts are exact integers; [count], [sum], [min]
     and [max] are tracked exactly. Memory is proportional to the
     number of octaves spanned by the data (the bucket array grows to
     cover [log2 (max/min)] octaves and never with the observation
     count). Zero gets its own exact bucket. *)
  type t = {
    sub_bits : int;
    sub : int;  (* 2^sub_bits sub-buckets per octave *)
    mutable zero : int;  (* exact count of v = 0 *)
    mutable base : int;  (* frexp exponent of counts.(0 .. sub-1) *)
    mutable counts : int array;  (* dense over the covered octaves *)
    mutable total : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create ?(sub_bits = 5) () =
    if sub_bits < 1 || sub_bits > 12 then
      invalid_arg "Metrics.Hist.create: sub_bits must be in [1, 12]";
    {
      sub_bits;
      sub = 1 lsl sub_bits;
      zero = 0;
      base = 0;
      counts = [||];
      total = 0;
      sum = 0.;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let relative_error t = 1. /. float_of_int t.sub
  let octaves t = Array.length t.counts / t.sub

  let sub_of t m =
    (* m in [0.5, 1) *)
    let s = int_of_float (((m *. 2.) -. 1.) *. float_of_int t.sub) in
    if s < 0 then 0 else if s >= t.sub then t.sub - 1 else s

  (* Grow the dense bucket array to cover octave [e]. *)
  let ensure t e =
    if Array.length t.counts = 0 then begin
      t.base <- e;
      t.counts <- Array.make t.sub 0
    end
    else if e < t.base || e >= t.base + octaves t then begin
      let lo = Stdlib.min t.base e in
      let hi = Stdlib.max (t.base + octaves t - 1) e in
      let counts = Array.make ((hi - lo + 1) * t.sub) 0 in
      Array.blit t.counts 0 counts ((t.base - lo) * t.sub)
        (Array.length t.counts);
      t.base <- lo;
      t.counts <- counts
    end

  let add ?(count = 1) t v =
    if count < 0 then invalid_arg "Metrics.Hist.add: count < 0";
    if not (Float.is_finite v) || v < 0. then
      invalid_arg "Metrics.Hist.add: value must be finite and >= 0";
    if count > 0 then begin
      t.total <- t.total + count;
      t.sum <- t.sum +. (v *. float_of_int count);
      if v < t.vmin then t.vmin <- v;
      if v > t.vmax then t.vmax <- v;
      if v = 0. then t.zero <- t.zero + count
      else begin
        let m, e = Float.frexp v in
        ensure t e;
        let idx = ((e - t.base) * t.sub) + sub_of t m in
        t.counts.(idx) <- t.counts.(idx) + count
      end
    end

  let count t = t.total
  let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
  let min t = t.vmin
  let max t = t.vmax

  (* Lower / upper bound of dense bucket [i]: octave [base + i / sub],
     sub-bucket [i mod sub]. *)
  let bucket_lo t i =
    let o = t.base + (i / t.sub) and s = i mod t.sub in
    Float.ldexp (1. +. (float_of_int s /. float_of_int t.sub)) (o - 1)

  let bucket_hi t i =
    let o = t.base + (i / t.sub) and s = i mod t.sub in
    Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int t.sub)) (o - 1)

  let percentile t p =
    if t.total = 0 then invalid_arg "Metrics.Hist.percentile: empty";
    if p < 0. || p > 100. then
      invalid_arg "Metrics.Hist.percentile: p out of [0,100]";
    let rank =
      Stdlib.max 1
        (int_of_float (ceil (p /. 100. *. float_of_int t.total)))
    in
    if rank <= t.zero then 0.
    else begin
      let acc = ref t.zero in
      let result = ref t.vmax in
      (try
         for i = 0 to Array.length t.counts - 1 do
           acc := !acc + t.counts.(i);
           if !acc >= rank then begin
             (* Midpoint of the bucket, clamped into the observed
                range so extreme buckets never overshoot min/max. *)
             let mid = (bucket_lo t i +. bucket_hi t i) /. 2. in
             result := Float.max t.vmin (Float.min t.vmax mid);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  (* Observations strictly above [v], at bucket granularity: buckets
     entirely above [v]'s bucket are counted, [v]'s own bucket is not
     (so the result can undercount by at most one bucket's worth). *)
  let count_above t v =
    if t.total = 0 then 0
    else if v < 0. then t.total
    else begin
      let from_idx =
        if v = 0. then 0
        else begin
          let m, e = Float.frexp v in
          if Array.length t.counts = 0 || e < t.base then 0
          else if e >= t.base + octaves t then Array.length t.counts
          else ((e - t.base) * t.sub) + sub_of t m + 1
        end
      in
      let acc = ref 0 in
      for i = from_idx to Array.length t.counts - 1 do
        acc := !acc + t.counts.(i)
      done;
      !acc
    end

  let buckets t =
    let nonzero = ref [] in
    for i = Array.length t.counts - 1 downto 0 do
      if t.counts.(i) > 0 then
        nonzero := (bucket_lo t i, bucket_hi t i, t.counts.(i)) :: !nonzero
    done;
    if t.zero > 0 then (0., 0., t.zero) :: !nonzero else !nonzero

  let merge_into ~dst src =
    if dst.sub_bits <> src.sub_bits then
      invalid_arg "Metrics.Hist.merge: sub_bits differ";
    if src.total > 0 then begin
      dst.total <- dst.total + src.total;
      dst.sum <- dst.sum +. src.sum;
      dst.zero <- dst.zero + src.zero;
      if src.vmin < dst.vmin then dst.vmin <- src.vmin;
      if src.vmax > dst.vmax then dst.vmax <- src.vmax;
      if Array.length src.counts > 0 then begin
        (* Copy bucket counts index-to-index (same quantization on
           both sides), growing dst to cover src's octave range. *)
        ensure dst src.base;
        ensure dst (src.base + octaves src - 1);
        let off = (src.base - dst.base) * dst.sub in
        Array.iteri
          (fun i c ->
            if c > 0 then dst.counts.(off + i) <- dst.counts.(off + i) + c)
          src.counts
      end
    end

  let merge a b =
    if a.sub_bits <> b.sub_bits then
      invalid_arg "Metrics.Hist.merge: sub_bits differ";
    let t = create ~sub_bits:a.sub_bits () in
    merge_into ~dst:t a;
    merge_into ~dst:t b;
    t

  let pp fmt t =
    if t.total = 0 then Format.fprintf fmt "(empty)"
    else
      Format.fprintf fmt
        "n=%d mean=%.3f min=%.3f p50=%.3f p99=%.3f p99.9=%.3f max=%.3f \
         (±%.1f%%)"
        t.total (mean t) t.vmin (percentile t 50.) (percentile t 99.)
        (percentile t 99.9) t.vmax
        (relative_error t *. 100.)
end

(* Kept for vdbench's per-phase means; the vdbench revision on ROADMAP
   renames that call to [Hist] and deletes this alias. *)
module Summary = Hist

module Timeseries = struct
  (* Named counters and histograms bucketed per fixed window of
     (simulated) time. Windows materialize on first touch, so memory
     is proportional to the number of distinct (name, active window)
     pairs, not to elapsed time or observation count. *)
  type t = {
    width : float;
    counters : (string, (int, float ref) Hashtbl.t) Hashtbl.t;
    hists : (string, (int, Hist.t) Hashtbl.t) Hashtbl.t;
    mutable wlo : int;
    mutable whi : int;  (* wlo > whi means no data yet *)
  }

  let create ~width () =
    if width <= 0. then invalid_arg "Metrics.Timeseries.create: width <= 0";
    {
      width;
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 16;
      wlo = max_int;
      whi = min_int;
    }

  let width t = t.width
  let window_of t time = int_of_float (Float.floor (time /. t.width))
  let window_start t w = float_of_int w *. t.width

  let touch t w =
    if w < t.wlo then t.wlo <- w;
    if w > t.whi then t.whi <- w

  let span t = if t.wlo > t.whi then None else Some (t.wlo, t.whi)

  let table tbl name =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = Hashtbl.create 32 in
        Hashtbl.add tbl name m;
        m

  let incr t ~time ?(by = 1.) name =
    let w = window_of t time in
    touch t w;
    let m = table t.counters name in
    match Hashtbl.find_opt m w with
    | Some r -> r := !r +. by
    | None -> Hashtbl.add m w (ref by)

  let observe t ~time name v =
    let w = window_of t time in
    touch t w;
    let m = table t.hists name in
    let h =
      match Hashtbl.find_opt m w with
      | Some h -> h
      | None ->
          let h = Hist.create () in
          Hashtbl.add m w h;
          h
    in
    Hist.add h v

  let names tbl =
    Hashtbl.fold (fun name _ acc -> name :: acc) tbl []
    |> List.sort String.compare

  let counter_names t = names t.counters
  let hist_names t = names t.hists

  let counter t name w =
    match Hashtbl.find_opt t.counters name with
    | None -> 0.
    | Some m -> ( match Hashtbl.find_opt m w with Some r -> !r | None -> 0.)

  let hist t name w =
    Option.bind (Hashtbl.find_opt t.hists name) (fun m -> Hashtbl.find_opt m w)

  let fold_windows t f init =
    match span t with
    | None -> init
    | Some (lo, hi) ->
        let acc = ref init in
        for w = lo to hi do
          acc := f !acc w
        done;
        !acc

  let counter_series t name =
    List.rev (fold_windows t (fun acc w -> (w, counter t name w) :: acc) [])

  let hist_series t name =
    List.rev (fold_windows t (fun acc w -> (w, hist t name w) :: acc) [])

  let percentile_series t name p =
    List.map
      (fun (w, h) ->
        match h with
        | Some h when Hist.count h > 0 -> (w, Some (Hist.percentile h p))
        | _ -> (w, None))
      (hist_series t name)

  let total t name =
    List.fold_left (fun acc (_, v) -> acc +. v) 0. (counter_series t name)

  let merged_hist t name =
    match Hashtbl.find_opt t.hists name with
    | None -> None
    | Some m ->
        if Hashtbl.length m = 0 then None
        else begin
          let acc = Hist.create () in
          (* Merge in window order: associative, so the order only
             matters for float-sum determinism. *)
          List.iter
            (fun (_, h) -> Option.iter (fun h -> Hist.merge_into ~dst:acc h) h)
            (hist_series t name);
          Some acc
        end
end

module Registry = struct
  type t = {
    counters : (string, Counter.t) Hashtbl.t;
    hists : (string, Hist.t) Hashtbl.t;
  }

  let create () : t =
    {
      counters = Hashtbl.create 32;
      hists = Hashtbl.create 8;
    }

  let counter t name =
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
        let c = Counter.create () in
        Hashtbl.add t.counters name c;
        c

  let incr ?by t name = Counter.incr ?by (counter t name)

  let value t name =
    match Hashtbl.find_opt t.counters name with
    | Some c -> Counter.value c
    | None -> 0.

  let names t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.counters []
    |> List.sort String.compare

  let hist_opt t name = Hashtbl.find_opt t.hists name
  let put_hist t name h = Hashtbl.replace t.hists name h

  let hist_names t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.hists []
    |> List.sort String.compare
end

module Snapshot = struct
  type t = (string * float) list

  let take reg =
    List.map (fun name -> (name, Registry.value reg name)) (Registry.names reg)

  let get t name =
    match List.assoc_opt name t with Some v -> v | None -> 0.
end

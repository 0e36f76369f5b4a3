(* The interaction benchmark: one workload per process on fresh Server+Wm
   pairs, driven from one thread through the layers' public functions.

     swmbench.exe --workload drag|pan|churn --seed N --seconds S --trace 0|1
     swmbench.exe --selftest

   With --trace 0 it prints the end-to-end metrics; with --trace 1 the
   per-layer ones.  The last line of standard output is the result object.
   See README.md for the workloads, the metrics and what each layer
   metric is expected to move. *)

module Server = Swm_xlib.Server
module Client_app = Swm_clients.Client_app
module Ctx = Swm_core.Ctx

type workload = {
  name : string;
  rate : float;  (** open-loop items per second *)
  closed_rate : float;
      (** nominal closed-loop items per second: sizes the closed-loop chunks
          to about [chunk_seconds] each *)
  cycle : int;  (** segments and chunks hold whole multiples of this *)
  scenes : Client_app.spec list array;  (** one resident population per round *)
  attach : round:int -> Fixture.t -> Fixture.session;
  warmup : int;  (** untimed items at the start of every round *)
}

(* The rates are about a tenth or less of each workload's closed-loop
   capacity when the benchmark was added, so the open loop keeps no
   backlog.  Each round starts at its own offset into the generated
   inputs. *)
let workload ?(resize_share = 0.) name seed =
  let offset round total = round * (total / Gen.rounds) in
  match name with
  | "drag" ->
      let g = Gen.drag ~resize_share seed in
      { name; rate = 1000.; closed_rate = 30_000.; cycle = 1; scenes = g.d_scenes;
        attach = (fun ~round ->
          Drag.session g ~start:(offset round (Array.length g.gestures)));
        warmup = 400 }
  | "pan" ->
      let g = Gen.pan seed in
      { name; rate = 100.; closed_rate = 1_000.; cycle = 1; scenes = g.p_scenes;
        attach = (fun ~round ->
          Pan.session g ~start:(offset round (Array.length g.presses)));
        warmup = 40 }
  | "churn" ->
      (* whole create/retitle/destroy cycles, so every segment has one op mix *)
      let g = Gen.churn seed in
      { name; rate = 500.; closed_rate = 8_000.; cycle = Churn.ops_per_cycle;
        scenes = g.c_scenes;
        attach = (fun ~round ->
          Churn.session g ~start:(offset round (Array.length g.cycles)));
        warmup = 140 }
  | _ -> invalid_arg name

let now = Trace.now_ns

(* -------- items -------- *)

let attempted = ref 0
let failed = ref 0

(* [Calib.gap_sample] times taken in the open loop's waits, latest first *)
let gap_times = ref []

type sched = Closed | Open of int  (** period between ops, ns *)

type run = {
  ops : int;
  lat : int array;  (** per op, ns: due to done (open) or body (closed) *)
  traced : bool array;  (** per op: ran while tracing was on *)
  lag : int array;  (** per op, ns: start minus due (open loop) *)
  body : int array;  (** per item, ns *)
  item_op : bool array;  (** per item: a sampled op, not a gesture boundary *)
  item_traced : bool array;
}

(* Runs items until [ops] ops have run.  The open loop schedules the ops
   only, one per period.  A gesture boundary runs as soon as the item
   before it is done, and the op after it is due one period after it
   returns: a drag leg's motions come at the pointer's rate from its press
   on.  So neither the boundary nor the harness's untimed search for the
   next press target is charged to a sampled op.  The loop spins to each
   due time rather than sleeping: a scheduler wake-up costs more than a
   drag op.  Each op is timed from its intended send time, so a stall
   charges every op it delays.  Before every eighth op, the loop times
   [Calib.gap_sample] halfway through the wait, if at least 50 us of the
   wait remain after that point. *)
let run_items (s : Fixture.session) ~sched ~ops =
  (* drag legs have at least 8 motions between two boundaries *)
  let cap = (2 * ops) + 8 in
  let lat = Array.make ops 0 and lag = Array.make ops 0 and traced = Array.make ops false in
  let body = Array.make cap 0 and item_op = Array.make cap false in
  let nops = ref 0 and items = ref 0 in
  let next_due = ref (now () + 1_000_000) in
  let server = s.fx.Fixture.server in
  while !nops < ops do
    let i = !items in
    if i = cap then failwith "swmbench: more gesture boundaries than expected";
    let is_op = s.prepare () in
    let due = match sched with Open _ when is_op -> !next_due | _ -> 0 in
    (match sched with
    | Open p when due > 0 && !nops land 7 = 0 ->
        while now () < due - (p / 2) do () done;
        if now () < due - 50_000 then gap_times := Calib.gap_sample () :: !gap_times
    | Open _ | Closed -> ());
    while now () < due do () done;
    Trace.current_item := !Trace.items_seen + i;
    let r0 = Server.request_count server in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    s.exec ();
    let t1 = now () in
    let w1 = Gc.minor_words () in
    Float.Array.set Fixture.words 0 (Float.Array.get Fixture.words 0 +. (w1 -. w0));
    let r = Server.request_count server - r0 in
    Fixture.acc.requests <- Fixture.acc.requests + r;
    body.(i) <- t1 - t0;
    item_op.(i) <- is_op;
    (match sched with
    | Open p -> next_due := (if is_op then due + p else t1 + p)
    | Closed -> ());
    if is_op then begin
      let k = !nops in
      lat.(k) <- (if due > 0 then t1 - due else t1 - t0);
      if due > 0 then lag.(k) <- t0 - due;
      traced.(k) <- !Trace.enabled;
      nops := k + 1;
      incr attempted
    end
    else Fixture.acc.boundary_requests <- Fixture.acc.boundary_requests + r;
    if not (s.check ()) then incr failed;
    incr items
  done;
  let items = !items in
  Trace.items_seen := !Trace.items_seen + items;
  Fixture.acc.ops <- Fixture.acc.ops + ops;
  { ops; lat; traced; lag; body = Array.sub body 0 items; item_op = Array.sub item_op 0 items;
    item_traced = Array.make items !Trace.enabled }

let concat runs =
  let cat f = Array.concat (List.rev_map f runs) in
  { ops = List.fold_left (fun n r -> n + r.ops) 0 runs; lat = cat (fun r -> r.lat);
    traced = cat (fun r -> r.traced); lag = cat (fun r -> r.lag);
    body = cat (fun r -> r.body); item_op = cat (fun r -> r.item_op);
    item_traced = cat (fun r -> r.item_traced) }

(* -------- statistics -------- *)

(* Nearest-rank quantile of a non-empty array. *)
let quantile q a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let us ns = float_of_int ns /. 1000.
let sum a = Array.fold_left ( + ) 0 a
let select keep a = Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list a))

(* -------- the run --------

   A run is [Gen.rounds] rounds, each on a fresh pair with its own scene.
   A round times its setup, warms up, runs an open-loop segment and then
   closed-loop chunks, and times the [Calib] kernel before and after; the
   segment's latencies are scaled by the gap samples taken inside it.  So
   setup, latency and capacity all sample the whole run and every scene:
   on a shared machine whose speed drifts over seconds, no metric sees
   only a slow or only a fast stretch, and no figure rests on one layout of
   windows.  Segments and chunks are fixed numbers of ops, so a seed fixes
   them; the closed loop stops early only if it overruns twice its share
   of the run.  The work counts cover the open-loop segments only. *)

let rounds = Gen.rounds
let open_share = 0.7
let closed_share = 0.2

(* Nominal length of one closed-loop chunk at [closed_rate]: long enough to
   hold many minor collections and major slices, short enough that a host
   preemption spoils only a few of a run's chunks. *)
let chunk_seconds = 0.05

(* Work counters of the open-loop segments.  They depend only on the item
   sequence. *)
type counts = {
  c_ops : int;
  c_requests : int;
  c_boundary_requests : int;
  c_words : float;
  c_enqueued : int;
  c_coalesced : int;
  c_delivered : int;
  c_shed : int;
  c_xerrors : int;
  c_rejected : int;
  c_wire_bytes : int;
  c_steps : int;
  c_events : int;
  c_step_requests : int;
  c_depth_max : int;
  c_promoted : float;
  c_major : int;
}

let server_counters = [| "events.enqueued"; "events.coalesced"; "events.delivered";
                         "events.shed"; "wm.xerrors"; "wire.rejected_frames" |]

let total = ref (Fixture.new_acc ())
let total_words = ref 0.
let deltas = Array.make (Array.length server_counters) 0
let promoted = ref 0.
let majors = ref 0

let reset_counts () =
  total := Fixture.new_acc ();
  total_words := 0.;
  Array.fill deltas 0 (Array.length deltas) 0;
  promoted := 0.;
  majors := 0

(* Add what [f] did on one pair to the counters, and nothing else: the
   warm-up and the closed-loop chunks run outside [counted]. *)
let counted (fx : Fixture.t) f =
  Fixture.reset_acc ();
  let before = Array.map (Fixture.counter fx) server_counters in
  let _, p0, _ = Gc.counters () and m0 = (Gc.quick_stat ()).major_collections in
  f ();
  let _, p1, _ = Gc.counters () and m1 = (Gc.quick_stat ()).major_collections in
  Array.iteri
    (fun i n -> deltas.(i) <- deltas.(i) + Fixture.counter fx n - before.(i))
    server_counters;
  promoted := !promoted +. (p1 -. p0);
  majors := !majors + m1 - m0;
  Fixture.add_acc ~into:!total;
  total_words := !total_words +. Float.Array.get Fixture.words 0

let counts () =
  let a = !total in
  {
    c_ops = a.ops;
    c_requests = a.requests;
    c_boundary_requests = a.boundary_requests;
    c_words = !total_words;
    c_enqueued = deltas.(0);
    c_coalesced = deltas.(1);
    c_delivered = deltas.(2);
    c_shed = deltas.(3);
    c_xerrors = deltas.(4);
    c_rejected = deltas.(5);
    c_wire_bytes = a.wire_bytes;
    c_steps = a.steps;
    c_events = a.events;
    c_step_requests = a.step_requests;
    c_depth_max = a.depth_max;
    c_promoted = !promoted;
    c_major = !majors;
  }

(* A fresh pair for round [round], with the seconds its setup took. *)
let fresh w ~round =
  Gc.full_major ();
  let t0 = now () in
  let fx = Fixture.start w.scenes.(round) in
  let setup = float_of_int (now () - t0) /. 1e9 in
  Fixture.settle fx;
  let s = w.attach ~round fx in
  ignore (run_items s ~sched:Closed ~ops:w.warmup);
  Gc.full_major ();
  (s, setup)

(* Times at the reference speed of [Calib] (see calib.ml), and as
   measured. *)
type times = {
  opened : run;  (** the open-loop segments *)
  rates : float list;  (** per closed-loop chunk, ops per second inside ops *)
  setups : float list;  (** seconds *)
}

type result = {
  last : Fixture.session;  (** the last round's session, for the probes *)
  scaled : times;
  measured : times;
  counts : counts;
  final_ok : bool;
}

let rate (c : run) = float_of_int c.ops *. 1e9 /. float_of_int (max 1 (sum c.body))

(* With [traced], every other round's open segment is traced, so traced
   and untraced segments interleave and the tracing overhead is measured
   paired. *)
let run w ~seconds ~traced =
  let whole n = max w.cycle (n / w.cycle * w.cycle) in
  let seg = whole (int_of_float (open_share *. seconds *. w.rate /. float_of_int rounds)) in
  let chunk = whole (int_of_float (chunk_seconds *. w.closed_rate)) in
  let chunks = max 1 (int_of_float (closed_share *. seconds /. chunk_seconds) / rounds) in
  let closed_cap = 2 * int_of_float (closed_share *. seconds *. 1e9 /. float_of_int rounds) in
  if traced then Trace.arm ~spans:((seg * rounds * 2) + 16);
  let period = int_of_float (1e9 /. w.rate) in
  let measured = ref [] and scaled = ref [] in
  let final_ok = ref true and last = ref None in
  reset_counts ();
  for r = 0 to rounds - 1 do
    let s, setup = fresh w ~round:r in
    let calib = List.init 5 (fun _ -> Calib.sample ()) in
    gap_times := [];
    let opened = ref None in
    counted s.fx (fun () ->
        Trace.enabled := traced && r land 1 = 1;
        opened := Some (run_items s ~sched:(Open period) ~ops:seg);
        Trace.enabled := false);
    let until = now () + closed_cap in
    let rates = ref [ rate (run_items s ~sched:Closed ~ops:chunk) ] in
    while List.length !rates < chunks && now () < until do
      rates := rate (run_items s ~sched:Closed ~ops:chunk) :: !rates
    done;
    if not (s.final_check ()) then final_ok := false;
    last := Some s;
    let calib = calib @ List.init 5 (fun _ -> Calib.sample ()) in
    let k = float_of_int Calib.reference_ns /. float_of_int (quantile 0.5 (Array.of_list calib)) in
    let k_open =
      match !gap_times with
      | [] -> k
      | g -> float_of_int Calib.gap_reference_ns /. float_of_int (quantile 0.5 (Array.of_list g))
    in
    let o = Option.get !opened in
    measured := { opened = o; rates = !rates; setups = [ setup ] } :: !measured;
    scaled :=
      { opened = { o with lat = Array.map (fun l -> int_of_float (float_of_int l *. k_open)) o.lat };
        rates = List.map (fun r -> r /. k) !rates; setups = [ setup *. k ] }
      :: !scaled
  done;
  let join rounds =
    { opened = concat (List.map (fun t -> t.opened) rounds);
      rates = List.concat_map (fun t -> t.rates) rounds;
      setups = List.concat_map (fun t -> t.setups) rounds }
  in
  { last = Option.get !last; scaled = join !scaled; measured = join !measured;
    counts = counts (); final_ok = !final_ok }

(* Ops that started more than one period after they were due. *)
let behind_frac w r =
  let period = int_of_float (1e9 /. w.rate) in
  let late = Array.fold_left (fun n l -> if l > period then n + 1 else n) 0 r.lag in
  float_of_int late /. float_of_int (max 1 (Array.length r.lag))

let warn_if_behind w r =
  let b = behind_frac w r in
  if b > 0.01 then
    Printf.eprintf
      "swmbench: generator fell behind its schedule: %.1f%% of %s ops started \
       over one period late\n%!"
      (100. *. b) w.name

(* -------- output -------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

(* Capacity is all chunks' ops over all their time (the chunks hold equal
   ops), and the latencies are nearest-rank quantiles of every sample of
   the run.  The tail reported is p90, not p99: on a shared host the share
   of ops that meet host interference moves between about 1% and 2% from
   one hour to the next, and the p99 sits right on that edge, so it moves
   by a factor of two or three with the host's state (see README.md).
   Each run prints its p99 and p99.9 on a comment line, ungated. *)
let capacity rates =
  let rates = Array.of_list rates in
  float_of_int (Array.length rates) /. Array.fold_left (fun a r -> a +. (1. /. r)) 0. rates

let per_op c n = float_of_int n /. float_of_int (max 1 c.c_ops)

let times t =
  [
    ("setup_s", "s", quantile 0.5 (Array.of_list t.setups));
    ("capacity_ops_s", "1/s", capacity t.rates);
    ("latency_p50_us", "us", us (quantile 0.50 t.opened.lat));
    ("latency_p90_us", "us", us (quantile 0.90 t.opened.lat));
  ]

let print_line what metrics =
  Printf.printf "# %s:%s\n" what
    (String.concat "" (List.map (fun (n, _, v) -> Printf.sprintf " %s=%.6g" n v) metrics))

let end_to_end w ~seconds =
  let r = run w ~seconds ~traced:false in
  warn_if_behind w r.measured.opened;
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  Printf.printf "# %s: %d open-loop samples at %.0f ops/s, %d failed of %d\n"
    w.name r.measured.opened.ops w.rate !failed !attempted;
  print_line "as measured, before scaling to the reference speed" (times r.measured);
  print_line "tail, not gated"
    [ ("latency_p99_us", "us", us (quantile 0.99 r.scaled.opened.lat));
      ("latency_p999_us", "us", us (quantile 0.999 r.scaled.opened.lat)) ];
  let ok_frac = float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) in
  ( r.final_ok,
    times r.scaled
    @ [
        ("requests_per_op", "count", per_op r.counts r.counts.c_requests);
        ("heap_peak_mb", "MB", heap_mb);
        ("ok_frac", "frac", ok_frac);
      ] )

let spans_dir = "_perfbench"

let per_layer w ~seconds ~seed =
  let r = run w ~seconds ~traced:true in
  let o = r.scaled.opened and c = r.counts and fx = r.last.fx in
  warn_if_behind w o;
  let self = Trace.self_ns () in
  let covered = sum self in
  let wall = sum (select o.item_traced o.body) in
  let unattributed = float_of_int (wall - covered) /. float_of_int (max 1 wall) in
  let boundary_ns = sum (select (Array.map not o.item_op) o.body) in
  let traced_ops = Array.fold_left (fun n t -> if t then n + 1 else n) 0 o.traced in
  let layer l =
    float_of_int self.(Trace.layer_index l) /. 1000. /. float_of_int (max 1 traced_ops)
  in
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  Trace.write
    (Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.tsv" w.name seed));
  let probes = Probes.run fx in
  let p50_t = quantile 0.50 (select o.traced o.lat)
  and p50_u = quantile 0.50 (select (Array.map not o.traced) o.lat) in
  let ledger = (Server.ledger_counts fx.server).lc_balance in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  Printf.printf "# %s: %d open-loop samples, %d traced, %d spans (%d dropped)\n" w.name
    o.ops traced_ops !Trace.len !Trace.dropped;
  ( r.final_ok && ledger = 0,
    [
      ("server.input_us_per_op", "us", layer Trace.Server);
      ("server.enqueued_per_op", "count", per_op c c.c_enqueued);
      ("server.coalesced_per_op", "count", per_op c c.c_coalesced);
      ("server.delivered_per_op", "count", per_op c c.c_delivered);
      ("server.queue_depth_max", "count", float_of_int c.c_depth_max);
      ("server.shed", "count", float_of_int c.c_shed);
      ("server.ledger_balance", "count", float_of_int ledger);
      ("wm.step_us_per_op", "us", layer Trace.Wm);
      ("wm.events_per_step", "count", ratio c.c_events c.c_steps);
      ("wm.requests_per_event", "count", ratio c.c_step_requests c.c_events);
      ("wm.xerrors", "count", float_of_int c.c_xerrors);
      ("client_app.process_us_per_op", "us", layer Trace.Client_app);
      ("wire_conn.submit_us_per_op", "us", layer Trace.Wire_submit);
      ("wire_conn.flush_us_per_op", "us", layer Trace.Wire_flush);
      ("wire_conn.bytes_per_op", "bytes", per_op c c.c_wire_bytes);
      ("wire_conn.rejected", "count", float_of_int c.c_rejected);
    ]
    @ List.map (fun (n, v) -> (n, "us", v)) probes
    @ [
        ("gc.minor_words_per_op", "words", c.c_words /. float_of_int (max 1 c.c_ops));
        ("gc.promoted_words_per_op", "words", c.c_promoted /. float_of_int (max 1 c.c_ops));
        ("gc.major_collections", "count", float_of_int c.c_major);
        ("gen.lag_p99_us", "us", us (quantile 0.99 o.lag));
        ("gen.behind_frac", "frac", behind_frac w o);
        ("gen.samples", "count", float_of_int o.ops);
        ("gesture.boundary_requests_frac", "frac", ratio c.c_boundary_requests c.c_requests);
        ("gesture.boundary_time_frac", "frac", ratio boundary_ns (sum o.body));
        ("trace.overhead_ratio", "ratio", float_of_int p50_t /. float_of_int (max 1 p50_u));
        ("trace.unattributed_frac", "frac", unattributed);
      ] )

(* -------- self-test --------

   Exact work counts repeat for one seed, tracing leaves them unchanged,
   a different seed changes the generated inputs, and the program's
   behaviour depends on those inputs alone: the global PRNG state, which a
   program reading its own randomness would see, does not change them. *)

let fixed_counts w ~traced =
  let s, _ = fresh w ~round:0 in
  let ops = 4 * w.warmup in
  if traced then Trace.arm ~spans:((ops * 8) + 16);
  reset_counts ();
  Trace.enabled := traced;
  counted s.fx (fun () -> ignore (run_items s ~sched:Closed ~ops));
  Trace.enabled := false;
  let c = counts () in
  (c.c_requests, c.c_words, c.c_enqueued, c.c_coalesced, c.c_delivered, c.c_wire_bytes,
   s.final_check ())

let selftest () =
  let ok = ref true in
  let expect what b =
    Printf.printf "%s %s\n%!" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  let drag = Gen.drag ~resize_share:0. in
  expect "drag inputs differ across seeds" (drag 1 <> drag 2);
  expect "pan inputs differ across seeds" (Gen.pan 1 <> Gen.pan 2);
  expect "churn inputs differ across seeds" (Gen.churn 1 <> Gen.churn 2);
  expect "inputs repeat for one seed"
    (drag 3 = drag 3 && Gen.pan 3 = Gen.pan 3 && Gen.churn 3 = Gen.churn 3);
  List.iter
    (fun name ->
      let w = workload name 7 in
      failed := 0;
      let a = fixed_counts w ~traced:false in
      Random.init 12345;
      let b = fixed_counts w ~traced:false in
      Random.init 54321;
      let c = fixed_counts w ~traced:true in
      let requests, words, enq, coal, deliv, bytes, final = a in
      Printf.printf
        "# %s: requests %d, minor words %.0f, enqueued %d, coalesced %d, delivered %d, \
         wire bytes %d\n"
        name requests words enq coal deliv bytes;
      expect (name ^ " output checks pass") (!failed = 0 && final);
      expect (name ^ " exact counts repeat for one seed") (a = b);
      expect (name ^ " tracing leaves the counts unchanged") (a = c))
    [ "drag"; "pan"; "churn" ];
  (* Not part of any workload while it fails: a resize of a moved window. *)
  failed := 0;
  let _, _, _, _, _, _, final = fixed_counts (workload ~resize_share:0.5 "drag" 7) ~traced:false in
  expect "drag with resizes of moved windows passes its output checks" (!failed = 0 && final);
  exit (if !ok then 0 else 1)

(* -------- main -------- *)

let usage () =
  prerr_endline
    "usage: swmbench --workload drag|pan|churn --seed N --seconds S --trace 0|1\n\
    \       swmbench --selftest";
  exit 2

let () =
  let workload_name = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload_name := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [ "--selftest" ] -> selftest ()
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload_name [ "drag"; "pan"; "churn" ]))
    || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then usage ();
  let w = workload !workload_name !seed in
  let seconds = float_of_int !seconds in
  let ok, metrics =
    if !trace = 0 then end_to_end w ~seconds else per_layer w ~seconds ~seed:!seed
  in
  let correct = ok && !failed = 0 in
  print_result ~correct metrics;
  exit (if correct then 0 else 1)

(* A fresh Server+Wm pair with its resident clients, the per-phase work
   counters, and the timed calls into each layer that the workloads are
   built from. *)

module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app

type t = {
  server : Server.t;
  wm : Wm.t;
  ctx : Ctx.t;
  apps : Client_app.t array;
}

(* Every workload runs the OpenLook+ template: title buttons, resize
   corners, a 3456x2700 virtual desktop and its panner.

   Overload protection is out of the benchmark's scope.  On a shared host
   a dispatch is now and then stalled past the watchdog's 50 ms, and the
   governor then degrades the WM for a while: it skips title repaints and
   panner refreshes, and churn's title checks fail.  That outcome is
   policy, not speed, so the watchdog threshold is raised to 10 s. *)
let resources = [ Templates.open_look; "swm*watchdogThresholdMs: 10000\n" ]

(* What setup_s times: Server.create through Wm.start and the managing of
   the initial population, until the first Wm.step returns. *)
let start specs =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let apps = Array.of_list (List.map (Client_app.launch server) specs) in
  ignore (Wm.step wm);
  { server; wm; ctx = Wm.ctx wm; apps }

(* Untimed: let the clients read what the manage sent them and drain
   anything the first step left behind, so the first timed op starts from
   a quiescent pair. *)
let settle fx =
  Array.iter (fun app -> ignore (Client_app.process_events app)) fx.apps;
  while Wm.step fx.wm > 0 do () done

(* -------- per-segment accounting --------

   Counts are integers or float sums over exact GC counters, so a segment
   with a fixed item sequence repeats them exactly.  The timed calls add to
   [acc]; the benchmark resets it before each counted segment and adds it
   to the run's totals after, so work outside those segments never
   counts. *)

type acc = {
  mutable ops : int;  (** sampled ops run *)
  mutable steps : int;
  mutable events : int;  (** events handled, summed over Wm.step *)
  mutable step_requests : int;  (** requests issued inside Wm.step *)
  mutable depth_max : int;  (** WM queue depth seen before a step *)
  mutable requests : int;  (** request_count delta over executed items *)
  mutable boundary_requests : int;  (** the part of [requests] in gesture boundaries *)
  mutable wire_bytes : int;
}

let new_acc () =
  { ops = 0; steps = 0; events = 0; step_requests = 0; depth_max = 0; requests = 0;
    boundary_requests = 0; wire_bytes = 0 }

let acc = new_acc ()

(* Minor-heap words allocated inside executed items (kept apart from [acc]
   so adding to it does not box). *)
let words = Float.Array.make 1 0.0

let reset_acc () =
  acc.ops <- 0;
  acc.steps <- 0;
  acc.events <- 0;
  acc.step_requests <- 0;
  acc.depth_max <- 0;
  acc.requests <- 0;
  acc.boundary_requests <- 0;
  acc.wire_bytes <- 0;
  Float.Array.set words 0 0.0

let add_acc ~into:t =
  t.ops <- t.ops + acc.ops;
  t.steps <- t.steps + acc.steps;
  t.events <- t.events + acc.events;
  t.step_requests <- t.step_requests + acc.step_requests;
  t.depth_max <- max t.depth_max acc.depth_max;
  t.requests <- t.requests + acc.requests;
  t.boundary_requests <- t.boundary_requests + acc.boundary_requests;
  t.wire_bytes <- t.wire_bytes + acc.wire_bytes

(* -------- timed calls, one span each -------- *)

let wm_step fx =
  let d = Server.pending fx.ctx.Ctx.conn in
  if d > acc.depth_max then acc.depth_max <- d;
  let r0 = Server.request_count fx.server in
  let t0 = Trace.enter () in
  let n = Wm.step fx.wm in
  Trace.leave Trace.Wm t0;
  acc.step_requests <- acc.step_requests + Server.request_count fx.server - r0;
  acc.events <- acc.events + n;
  acc.steps <- acc.steps + 1

let warp fx p =
  let t0 = Trace.enter () in
  Server.warp_pointer fx.server ~screen:0 p;
  Trace.leave Trace.Server t0

let press fx =
  let t0 = Trace.enter () in
  Server.press_button fx.server 1;
  Trace.leave Trace.Server t0

let release fx =
  let t0 = Trace.enter () in
  Server.release_button fx.server 1;
  Trace.leave Trace.Server t0

let process app =
  let t0 = Trace.enter () in
  ignore (Client_app.process_events app);
  Trace.leave Trace.Client_app t0

(* -------- sessions --------

   A workload drives a fixture as a sequence of items.  [prepare] picks the
   next item's inputs before its due time (untimed) and says whether it is
   a sampled op or a gesture boundary; [exec] is the timed part; [check]
   verifies the item's effect (untimed); [final_check] runs at the end of
   a phase. *)

type session = {
  fx : t;
  prepare : unit -> bool;
  exec : unit -> unit;
  check : unit -> bool;
  final_check : unit -> bool;
}

let counter fx name = Metrics.counter_value (Server.metrics fx.server) name

(* Failures every workload shares: an absorbed X error or a state-bearing
   event shed since the last look. *)
let shared_failures fx =
  let last = ref (counter fx "wm.xerrors", counter fx "events.shed.state_bearing") in
  fun () ->
    let now = (counter fx "wm.xerrors", counter fx "events.shed.state_bearing") in
    let ok = now = !last in
    last := now;
    ok

let ledger_balanced fx = (Server.ledger_counts fx.server).Server.lc_balance = 0

let client_of_app fx app =
  match Wm.find_client fx.ctx (Client_app.window app) with
  | Some c -> c
  | None -> failwith "resident client not managed"

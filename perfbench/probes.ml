(* Direct-call probes of the layers an op reaches only through Wm.step:
   each times one public call on the workload's final state and reports
   the median over [reps] calls, in microseconds.  Between calls the WM
   and the clients drain what the call queued (untimed), so every call
   starts from a quiescent pair. *)

open Fixture
module Panner = Swm_core.Panner
module Vdesk = Swm_core.Vdesk
module Decoration = Swm_core.Decoration
module Config = Swm_core.Config
module Functions = Swm_core.Functions

let reps = 41

let median_us samples =
  let a = Array.copy samples in
  Array.sort compare a;
  float_of_int a.(Array.length a / 2) /. 1000.

let time_calls ?(before = fun _ -> ()) fx ~reps f =
  let samples = Array.make reps 0 in
  for i = 0 to reps - 1 do
    before i;
    let t0 = Trace.now_ns () in
    f i;
    samples.(i) <- Trace.now_ns () - t0;
    settle fx
  done;
  median_us samples

let run fx =
  let app = fx.apps.(0) in
  let client = client_of_app fx app in
  let home = Vdesk.offset fx.ctx ~screen:0 in
  let frame0 = Ctx.frame_geometry fx.ctx client in
  let panner = time_calls fx ~reps (fun _ -> Panner.refresh fx.ctx ~screen:0) in
  let pan_to =
    time_calls fx ~reps (fun i ->
        Vdesk.pan_to fx.ctx ~screen:0
          (if i land 1 = 0 then Geom.point 1000 800 else home))
  in
  let move_frame =
    time_calls fx ~reps (fun i ->
        Decoration.move_frame fx.ctx client
          (Geom.point (frame0.x + (i land 1)) frame0.y))
  in
  let update_name =
    (* Each call reads a fresh name; the untimed drain then repaints it
       once more, as the WM does on the PropertyNotify. *)
    time_calls fx ~reps
      ~before:(fun i -> Client_app.set_name app (Printf.sprintf "probe-%d" i))
      (fun _ -> Decoration.update_name fx.ctx client)
  in
  let redecorate = time_calls fx ~reps (fun _ -> Decoration.redecorate fx.ctx client) in
  let query =
    time_calls fx ~reps (fun _ -> ignore (Config.query1 fx.ctx.Ctx.cfg ~screen:0 "opaqueMove"))
  in
  let execute =
    let inv = Functions.invocation ~client ~screen:0 () in
    time_calls fx ~reps (fun _ -> ignore (Functions.execute_string fx.ctx inv "f.raise"))
  in
  [
    ("panner.refresh_us", panner);
    ("vdesk.pan_to_us", pan_to);
    ("decoration.move_frame_us", move_frame);
    ("decoration.update_name_us", update_name);
    ("decoration.redecorate_us", redecorate);
    ("config.query_us", query);
    ("functions.execute_us", execute);
  ]

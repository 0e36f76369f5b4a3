(* pan: navigation on a crowded virtual desktop.  Each op warps the pointer
   into the panner, presses and releases button 1, and lets the WM pan. *)

open Fixture
module Vdesk = Swm_core.Vdesk
module Event = Swm_xlib.Event

type st = {
  fx : Fixture.t;
  presses : (int * int) array;
  panner : Geom.point;  (** the panner's interior origin, root coordinates *)
  panner_win : Xid.t;
  scale : int;
  mutable i : int;
  mutable target : Geom.point;  (** panner-relative press position *)
}

(* Presses land only where the panner itself shows: the panner frame's
   resize corners overlap its bottom corners, and a press there resizes the
   panner (and so the desktop) instead of panning.  A position that is
   covered is skipped for the next one in the sequence. *)
let pannable st (x, y) =
  let w =
    Server.window_at st.fx.server ~screen:0
      (Geom.point (st.panner.px + x) (st.panner.py + y))
  in
  Xid.equal w st.panner_win || Xid.equal (Server.parent_of st.fx.server w) st.panner_win

let rec prepare st () =
  let p = st.presses.(st.i mod Array.length st.presses) in
  if pannable st p then begin
    st.target <- Geom.point (fst p) (snd p);
    true
  end
  else begin
    st.i <- st.i + 1;
    prepare st ()
  end

let exec st () =
  let fx = st.fx in
  warp fx (Geom.point (st.panner.px + st.target.px) (st.panner.py + st.target.py));
  press fx;
  release fx;
  wm_step fx

(* The viewport centres on the pressed desktop position, clamped to the
   desktop (paper §6.1). *)
let expected_offset st =
  let clampi lo hi v = max lo (min v hi) in
  Geom.point
    (clampi 0 (Gen.desktop_w - Gen.screen_w)
       ((st.target.px * st.scale) - (Gen.screen_w / 2)))
    (clampi 0 (Gen.desktop_h - Gen.screen_h)
       ((st.target.py * st.scale) - (Gen.screen_h / 2)))

(* A pan moves the desktop window only: no client may be told it moved
   (paper §6.3.1, EXPERIMENTS E3).  The check reads the clients' queues
   directly, so Client_app stays out of this workload. *)
let no_configure_notify st =
  Array.for_all
    (fun app ->
      let conn = Client_app.conn app in
      Server.pending conn = 0
      || List.for_all
           (function Event.Configure_notify _ -> false | _ -> true)
           (Server.read_events conn ~max:max_int))
    st.fx.apps

let check st () =
  st.i <- st.i + 1;
  let ok = Vdesk.offset st.fx.ctx ~screen:0 = expected_offset st in
  no_configure_notify st && ok

let session (g : Gen.pan) ~start fx =
  let vdesk =
    match (Ctx.screen fx.ctx 0).Ctx.vdesk with
    | Some v -> v
    | None -> failwith "pan: no virtual desktop"
  in
  let pg = Server.root_geometry fx.server vdesk.Ctx.panner_client in
  let st =
    {
      fx;
      presses = g.presses;
      panner = Geom.point pg.x pg.y;
      panner_win = vdesk.Ctx.panner_client;
      scale = vdesk.Ctx.panner_scale;
      i = start;
      target = Geom.point 0 0;
    }
  in
  let shared = shared_failures fx in
  {
    fx;
    prepare = prepare st;
    exec = exec st;
    check = (fun () -> let ok = check st () in shared () && ok);
    final_check = (fun () -> ledger_balanced fx);
  }

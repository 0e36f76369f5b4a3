(* drag: direct manipulation.  A gesture is made of legs.  Each leg presses
   button 1 on an unobscured [name] title button (f.move) or resize corner,
   moves the pointer one motion event per item, and releases.  The motions
   are the sampled ops; press and release are gesture boundaries.

   A move gesture is one leg that goes out along the generated path and
   comes back along the same points, so the window ends where it started.
   Open-ended drags would pile the windows up under each other and under
   the root panel until no title is left to grab, and the cost of an op
   would drift with the run's length.

   A resize gesture is three legs on one client: move it out along the
   path, resize it from one of its corners out and back along the same
   deltas, and move it back to where it was.  So every resize is of a
   window the user has just moved, as in real use.  The drag workload
   makes no resize gestures while such a resize fails; the self-test
   makes them (see README.md). *)

open Fixture
module Wobj = Swm_oi.Wobj

type leg =
  | Round  (** move out and back *)
  | Out  (** move out *)
  | Corner  (** resize out and back *)
  | Back  (** move back to where [Out] found the window *)

let legs_of (g : Gen.gesture) = if g.resize then [ Out; Corner; Back ] else [ Round ]

type phase = Press | Move of int | Release

type grab = {
  app : Client_app.t;
  client : Ctx.client;
  at : Geom.point;  (** where the press lands, root coordinates *)
}

type st = {
  fx : Fixture.t;
  gestures : Gen.gesture array;
  mutable gi : int;
  mutable legs : leg list;  (** the current leg first *)
  mutable phase : phase;
  mutable grab : grab option;
  mutable pointer : Geom.point;
  path : Geom.point array;  (** pointer positions the [Out] or [Round] leg visits *)
  targets : Geom.point array;  (** the current leg's pointer positions, one per motion *)
  mutable n_targets : int;
  mutable home : Geom.point;  (** the frame's position when [Out] pressed *)
  (* captured after the press *)
  mutable pointer0 : Geom.point;
  mutable frame0 : Geom.rect;
  mutable size0 : int * int;
  mutable dir : int * int;
  mutable boff : Geom.point;  (** believed position minus frame position *)
}

(* The pointer stays left of the panner (bottom right, 144 px wide) so a
   move never turns into a drop on the panner. *)
let max_x = Gen.screen_w - 200
let clamp_pointer x y = Geom.point (max 4 (min x (max_x - 1))) (max 4 (min y (Gen.screen_h - 5)))

let in_box (p : Geom.point) = p.px >= 4 && p.px < max_x && p.py >= 4 && p.py < Gen.screen_h - 4

(* A point of [win] that shows, tried from its centre outwards along its
   middle line, as a user aims at the part of a title bar they can see.
   Centres alone can all be covered: the top window's title under the root
   panel and every other title under a window above it. *)
let unobscured fx win =
  let r = Server.root_geometry fx.server win in
  List.find_map
    (fun eighths ->
      let p = Geom.point (r.x + (r.w * eighths / 8)) (r.y + (r.h / 2)) in
      if in_box p && Xid.equal (Server.window_at fx.server ~screen:0 p) win then Some p
      else None)
    [ 4; 2; 6; 1; 7 ]

let name_button (client : Ctx.client) =
  match client.Ctx.deco with
  | Some deco -> Option.map Wobj.window (Wobj.find_descendant deco ~name:"name")
  | None -> None

(* The first candidate that shows, trying them in a fixed order from the
   gesture's seeded pick onwards.  It stops at the first hit because each
   test is a hit test against the server, and a pause between legs should
   stay short next to the leg. *)
let first_shown (g : Gen.gesture) cands shown =
  let n = Array.length cands in
  let rec go k =
    if k = n then None
    else match shown cands.((g.pick + k) mod n) with Some _ as hit -> hit | None -> go (k + 1)
  in
  go 0

let name_target st g =
  first_shown g st.fx.apps (fun app ->
      let client = client_of_app st.fx app in
      match name_button client with
      | Some win -> Option.map (fun at -> { app; client; at }) (unobscured st.fx win)
      | None -> None)

let corner_target st g (prev : grab) =
  let corners =
    Xid.Tbl.fold
      (fun win client found -> if client == prev.client then win :: found else found)
      st.fx.ctx.Ctx.corners []
    |> List.sort (fun a b -> compare (Xid.to_int a) (Xid.to_int b))
    |> Array.of_list
  in
  first_shown g corners (fun win -> Option.map (fun at -> { prev with at }) (unobscured st.fx win))

let gesture st = st.gestures.(st.gi mod Array.length st.gestures)
let the_grab st = match st.grab with Some g -> g | None -> assert false

(* The pointer positions of [leg] from the press at [at]: the generated
   deltas, clamped to the box, and for a round trip the same points back.
   [Back] retraces [Out]'s path, bent evenly so that it ends with the frame
   at [home]; when the frame is where [Out] left it, that is no bend. *)
let fill_targets st leg (at : Geom.point) =
  let moves = (gesture st).moves in
  let n = Array.length moves in
  let walk (buf : Geom.point array) =
    buf.(0) <- at;
    Array.iteri
      (fun k (dx, dy) -> buf.(k + 1) <- clamp_pointer (buf.(k).px + dx) (buf.(k).py + dy))
      moves
  in
  let there_and_back (buf : Geom.point array) =
    for k = 0 to n - 1 do st.targets.(k) <- buf.(k + 1) done;
    for k = 0 to n - 1 do st.targets.(n + k) <- buf.(n - 1 - k) done;
    st.n_targets <- 2 * n
  in
  match leg with
  | Round -> walk st.path; there_and_back st.path
  | Out ->
      walk st.path;
      Array.blit st.path 1 st.targets 0 n;
      st.n_targets <- n
  | Corner ->
      (* its own walk, so [path] still holds [Out]'s for [Back] *)
      let buf = Array.make (n + 1) at in
      walk buf;
      there_and_back buf
  | Back ->
      let first = st.path.(0) and last = st.path.(n) in
      let f = Server.geometry st.fx.server (the_grab st).client.Ctx.frame in
      let bx = st.home.px - f.x - (first.px - last.px)
      and by = st.home.py - f.y - (first.py - last.py) in
      for k = 0 to n - 1 do
        let p = st.path.(n - 1 - k) in
        st.targets.(k) <-
          clamp_pointer
            (at.px + p.px - last.px + (bx * (k + 1) / n))
            (at.py + p.py - last.py + (by * (k + 1) / n))
      done;
      st.n_targets <- n

let next_gesture st =
  st.gi <- st.gi + 1;
  st.legs <- legs_of (gesture st)

(* Grab what the current leg presses.  A gesture whose first leg finds no
   unobscured title is skipped.  A corner or a title that the earlier legs
   left obscured drops that leg; the window then stays where it is. *)
let rec start_leg st tries =
  if tries > Array.length st.gestures then failwith "drag: no unobscured target";
  match st.legs with
  | [] -> next_gesture st; start_leg st tries
  | leg :: rest -> (
      let g = gesture st in
      let found =
        match (leg, st.grab) with
        | (Round | Out), _ -> name_target st g
        | Corner, Some prev -> corner_target st g prev
        | Back, Some prev -> (
            match name_button prev.client with
            | Some win -> Option.map (fun at -> { prev with at }) (unobscured st.fx win)
            | None -> None)
        | (Corner | Back), None -> None
      in
      match found with
      | Some grab ->
          st.grab <- Some grab;
          fill_targets st leg grab.at
      | None when leg = Round || leg = Out -> next_gesture st; start_leg st (tries + 1)
      | None -> st.legs <- rest; start_leg st tries)

let leg st = match st.legs with l :: _ -> l | [] -> assert false

let prepare st () =
  match st.phase with
  | Press ->
      start_leg st 0;
      st.pointer <- (the_grab st).at;
      false
  | Move k ->
      st.pointer <- st.targets.(k);
      true
  | Release -> false

let exec st () =
  let fx = st.fx in
  match st.phase with
  | Press ->
      warp fx st.pointer;
      press fx;
      wm_step fx
  | Move _ ->
      warp fx st.pointer;
      wm_step fx;
      process (the_grab st).app
  | Release ->
      release fx;
      wm_step fx;
      process (the_grab st).app

let frame_geom st = Server.geometry st.fx.server (the_grab st).client.Ctx.frame
let client_size st =
  let g = Server.geometry st.fx.server (the_grab st).client.Ctx.cwin in
  (g.w, g.h)

(* Where the WM must have put the frame for the current pointer: a move
   follows the pointer delta; a resize grows the client by the delta
   (never below 16 px) and keeps the edge opposite the grabbed corner. *)
let frame_ok st =
  let f = frame_geom st in
  let dx = st.pointer.px - st.pointer0.px and dy = st.pointer.py - st.pointer0.py in
  let f0 = st.frame0 in
  if leg st <> Corner then
    f.x = f0.x + dx && f.y = f0.y + dy && f.w = f0.w && f.h = f0.h
  else begin
    let w0, h0 = st.size0 and sx, sy = st.dir in
    let w = max 16 (w0 + (sx * dx)) and h = max 16 (h0 + (sy * dy)) in
    let anchored_x = if sx < 0 then f.x + f.w = f0.x + f0.w else f.x = f0.x in
    let anchored_y = if sy < 0 then f.y + f.h = f0.y + f0.h else f.y = f0.y in
    client_size st = (w, h) && anchored_x && anchored_y
  end

let believed_ok st =
  let f = frame_geom st in
  Client_app.believed_position (the_grab st).app
  = Some (Geom.point (f.x + st.boff.px) (f.y + st.boff.py))

let check st () =
  let fx = st.fx in
  match st.phase with
  | Press ->
      let g = the_grab st in
      let grabbed =
        match fx.ctx.Ctx.mode with
        | Ctx.Moving { m_client; _ } -> leg st <> Corner && m_client == g.client
        | Ctx.Resizing { r_client; r_dir; _ } ->
            st.dir <- (r_dir.px, r_dir.py);
            leg st = Corner && r_client == g.client
        | Ctx.Idle | Ctx.Prompting _ -> false
      in
      st.pointer0 <- Server.pointer_pos fx.server;
      st.frame0 <- frame_geom st;
      st.size0 <- client_size st;
      if leg st = Out then st.home <- Geom.point st.frame0.x st.frame0.y;
      let ok =
        match Client_app.believed_position g.app with
        | Some b ->
            st.boff <- Geom.point (b.px - st.frame0.x) (b.py - st.frame0.y);
            true
        | None -> false
      in
      st.phase <- Move 0;
      grabbed && ok && st.pointer0 = g.at
  | Move k ->
      if k + 1 < st.n_targets then st.phase <- Move (k + 1) else st.phase <- Release;
      frame_ok st
  | Release ->
      let idle = match fx.ctx.Ctx.mode with Ctx.Idle -> true | _ -> false in
      let ok = idle && frame_ok st && believed_ok st in
      (match st.legs with
      | [] | [ _ ] -> next_gesture st; st.grab <- None
      | _ :: rest -> st.legs <- rest);
      st.phase <- Press;
      ok

let session (g : Gen.drag) ~start fx =
  let longest = Array.fold_left (fun m (g : Gen.gesture) -> max m (Array.length g.moves)) 0 g.gestures in
  let st =
    {
      fx;
      gestures = g.gestures;
      gi = start;
      legs = legs_of g.gestures.(start mod Array.length g.gestures);
      phase = Press;
      grab = None;
      pointer = Geom.point 0 0;
      path = Array.make (longest + 1) (Geom.point 0 0);
      targets = Array.make (2 * longest) (Geom.point 0 0);
      n_targets = 0;
      home = Geom.point 0 0;
      pointer0 = Geom.point 0 0;
      frame0 = Geom.rect 0 0 0 0;
      size0 = (0, 0);
      dir = (1, 1);
      boff = Geom.point 0 0;
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

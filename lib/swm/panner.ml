module Metrics = Swm_xlib.Metrics
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event

let create (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  match scr.vdesk with
  | None -> None
  | Some vdesk ->
      let want =
        match Config.query1 ctx.cfg ~screen "panner" with
        | Some v -> (
            match String.lowercase_ascii (String.trim v) with
            | "true" | "yes" | "on" | "1" -> true
            | _ -> false)
        | None -> false
      in
      if not want then None
      else begin
        let scale =
          match
            Config.query ctx.cfg ~screen ~names:[ "panner"; "scale" ]
              ~classes:[ "Panner"; "Scale" ]
          with
          | Some v -> ( match int_of_string_opt (String.trim v) with
                        | Some n when n > 0 -> n
                        | Some _ | None -> 24)
          | None -> 24
        in
        let dw, dh = vdesk.vsize in
        let pw = dw / scale and ph = dh / scale in
        let sw, sh = Server.screen_size ctx.server ~screen in
        let pos =
          match
            Config.query ctx.cfg ~screen ~names:[ "panner"; "geometry" ]
              ~classes:[ "Panner"; "Geometry" ]
          with
          | Some g -> (
              match Geom.parse g with
              | Ok spec ->
                  let r =
                    Geom.resolve spec ~default:(Geom.rect 0 0 pw ph)
                      ~within:(Geom.rect 0 0 sw sh)
                  in
                  Geom.point r.x r.y
              | Error _ -> Geom.point (sw - pw - 16) (sh - ph - 16))
          | None -> Geom.point (sw - pw - 16) (sh - ph - 16)
        in
        let win =
          Server.create_window ctx.server ctx.conn ~parent:scr.root
            ~geom:(Geom.rect pos.px pos.py pw ph) ~background:'.' ()
        in
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_class
          (Prop.Wm_class { instance = "panner"; class_ = "Panner" });
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_name
          (Prop.String "Virtual Desktop");
        (* swm placed the panner deliberately: keep that position. *)
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_normal_hints
          (Prop.Size_hints { Prop.default_size_hints with us_position = true });
        Server.select_input ctx.server ctx.conn win
          [ Event.Button_press_mask; Event.Button_release_mask;
            Event.Pointer_motion_mask ];
        vdesk.panner_client <- win;
        vdesk.panner_scale <- scale;
        Some win
      end

let vdesk_of (ctx : Ctx.t) ~screen = (Ctx.screen ctx screen).vdesk

let is_panner (ctx : Ctx.t) (client : Ctx.client) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk -> Xid.equal vdesk.panner_client client.cwin
  | None -> false

(* The client whose frame is [frame], when it shows a miniature: a client
   on the current desktop has one unless it is sticky, iconic or the
   panner itself. *)
let shown (ctx : Ctx.t) ~screen frame =
  match Xid.Tbl.find_opt ctx.frames frame with
  | Some (client : Ctx.client)
    when client.screen = screen && (not client.sticky) && client.state = Prop.Normal
         && not (is_panner ctx client) ->
      Some client
  | Some _ | None -> None

let scaled scale (g : Geom.rect) =
  Geom.rect (g.x / scale) (g.y / scale) (max 1 (g.w / scale)) (max 1 (g.h / scale))

let remove_miniature (ctx : Ctx.t) (client : Ctx.client) =
  let mini = client.panner_mini in
  if not (Xid.is_none mini) then begin
    client.panner_mini <- Xid.none;
    Xid.Tbl.remove ctx.panner_minis mini;
    if Server.window_exists ctx.server mini then Server.destroy_window ctx.server mini
  end

(* Destroy the miniatures of clients that left the current desktop
   (unmanaged, iconified, made sticky, sent to another desktop) and forget
   those whose window is gone. *)
let remove_stale (ctx : Ctx.t) (vdesk : Ctx.vdesk) ~screen =
  let desk = vdesk.vwins.(vdesk.current) in
  let stays mini (client : Ctx.client) =
    Server.window_exists ctx.server mini
    && Server.window_exists ctx.server client.frame
    && Xid.equal (Server.parent_of ctx.server client.frame) desk
    &&
    match shown ctx ~screen client.frame with
    | Some c -> c == client
    | None -> false
  in
  let stale =
    Xid.Tbl.fold
      (fun mini (client : Ctx.client) acc ->
        if client.screen <> screen || stays mini client then acc else client :: acc)
      ctx.panner_minis []
  in
  List.iter (remove_miniature ctx) stale

(* [keep.(i)] for the members of one longest strictly increasing
   subsequence of [a] (patience sorting, O(n log n)). *)
let longest_increasing (a : int array) =
  let n = Array.length a in
  let tails = Array.make n 0 and prev = Array.make n (-1) and len = ref 0 in
  for i = 0 to n - 1 do
    let lo = ref 0 and hi = ref !len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(tails.(mid)) < a.(i) then lo := mid + 1 else hi := mid
    done;
    if !lo > 0 then prev.(i) <- tails.(!lo - 1);
    tails.(!lo) <- i;
    if !lo = !len then incr len
  done;
  let keep = Array.make n false in
  let i = ref (if !len = 0 then -1 else tails.(!len - 1)) in
  while !i >= 0 do
    keep.(!i) <- true;
    i := prev.(!i)
  done;
  keep

(* Restack [want] (bottom to top) with the fewest ConfigureWindows: the
   longest run already in the wanted relative order stays, and every other
   window goes directly above its wanted predecessor (or, for the first,
   to the bottom). *)
let restack (ctx : Ctx.t) ~children want =
  let pos = Xid.Tbl.create 64 in
  List.iteri (fun i w -> Xid.Tbl.replace pos w i) children;
  let keep = longest_increasing (Array.map (Xid.Tbl.find pos) want) in
  Array.iteri
    (fun i w ->
      if not keep.(i) then
        if i = 0 then Server.lower_window ctx.server ctx.conn w
        else
          Server.configure_window ctx.server ctx.conn w
            { Event.no_changes with cstack = Some Event.Above; csibling = Some want.(i - 1) })
    want

let has_panner (ctx : Ctx.t) (vdesk : Ctx.vdesk) =
  (not (Xid.is_none vdesk.panner_client))
  && Server.window_exists ctx.server vdesk.panner_client

let has_outline (ctx : Ctx.t) (vdesk : Ctx.vdesk) =
  (not (Xid.is_none vdesk.panner_outline))
  && Server.window_exists ctx.server vdesk.panner_outline

(* Bring the scrollbars, the viewport outline and the miniatures up to
   date with the current state, issuing requests only for what differs:
   one ConfigureWindow per moved window, a create per new miniature, a
   destroy per stale one, and restacking only when the order is off. *)
let redraw (ctx : Ctx.t) ~screen =
  Scrollbar.refresh ctx ~screen;
  match vdesk_of ctx ~screen with
  | None -> ()
  | Some vdesk ->
      remove_stale ctx vdesk ~screen;
      if has_panner ctx vdesk then begin
        let panner = vdesk.panner_client in
        let scale = vdesk.panner_scale in
        let vp = scaled scale (Vdesk.viewport ctx ~screen) in
        if not (has_outline ctx vdesk) then begin
          let outline =
            Server.create_window ctx.server ctx.conn ~parent:panner ~geom:vp ~border:1 ()
          in
          Server.map_window ctx.server ctx.conn outline;
          vdesk.panner_outline <- outline
        end
        else Ctx.place ctx vdesk.panner_outline vp;
        let minis =
          List.filter_map
            (fun frame ->
              match shown ctx ~screen frame with
              | None -> None
              | Some client ->
                  let geom = scaled scale (Server.geometry ctx.server frame) in
                  if Xid.is_none client.panner_mini then begin
                    let mini =
                      Server.create_window ctx.server ctx.conn ~parent:panner ~geom
                        ~background:'m' ()
                    in
                    Server.select_input ctx.server ctx.conn mini
                      [ Event.Button_press_mask; Event.Button_release_mask ];
                    Server.map_window ctx.server ctx.conn mini;
                    client.panner_mini <- mini;
                    Xid.Tbl.replace ctx.panner_minis mini client
                  end
                  else Ctx.place ctx client.panner_mini geom;
                  Some client.panner_mini)
            (Server.children_of ctx.server vdesk.vwins.(vdesk.current))
        in
        (* The outline stays at the bottom, so the miniatures above it
           receive their own button presses, and the miniatures mirror the
           desktop's stacking order. *)
        let want = vdesk.panner_outline :: minis in
        let children =
          List.filter
            (fun w -> Xid.equal w vdesk.panner_outline || Xid.Tbl.mem ctx.panner_minis w)
            (Server.children_of ctx.server panner)
        in
        if not (List.equal Xid.equal children want) then
          restack ctx ~children (Array.of_list want)
      end

(* After a pan.  A pan moves only the desktop window: frames keep their
   desktop coordinates and stacking, so no miniature can change, and only
   the thumbs and the outline follow the viewport.  A missing outline
   takes the full redraw, which creates it at the bottom. *)
let redraw_viewport (ctx : Ctx.t) ~screen =
  match vdesk_of ctx ~screen with
  | None -> ()
  | Some vdesk when has_panner ctx vdesk && not (has_outline ctx vdesk) ->
      redraw ctx ~screen
  | Some vdesk ->
      Scrollbar.refresh ctx ~screen;
      if has_panner ctx vdesk then
        Ctx.place ctx vdesk.panner_outline
          (scaled vdesk.panner_scale (Vdesk.viewport ctx ~screen))

let gated draw (ctx : Ctx.t) ~screen =
  if ctx.tier <> Ctx.Tier_full then
    (* Degraded: the panner is a luxury redraw.  The governor re-runs
       refresh on every screen when it restores the full tier. *)
    Metrics.incr
      (Metrics.counter (Server.metrics ctx.server) "governor.refreshes_skipped")
  else
  (let tracer = Server.tracer ctx.server in
   if Swm_xlib.Tracing.enabled tracer then
     Swm_xlib.Tracing.span tracer "panner.refresh"
   else fun f -> f ())
  @@ fun () ->
  let t0 = Metrics.now_mono_ns () in
  draw ctx ~screen;
  Metrics.observe ctx.h_panner_refresh_ns (Metrics.now_mono_ns () - t0)

let refresh ctx ~screen = gated redraw ctx ~screen

let pan_to ctx ~screen pos =
  Vdesk.pan_to ctx ~screen pos;
  gated redraw_viewport ctx ~screen

let pan_by ctx ~screen ~dx ~dy =
  let o = Vdesk.offset ctx ~screen in
  pan_to ctx ~screen (Geom.point (o.px + dx) (o.py + dy))

let client_of_miniature (ctx : Ctx.t) win = Xid.Tbl.find_opt ctx.panner_minis win

let desktop_pos_of_panner_pos (ctx : Ctx.t) ~screen pos =
  match vdesk_of ctx ~screen with
  | None -> pos
  | Some vdesk ->
      Geom.point (pos.Geom.px * vdesk.panner_scale) (pos.Geom.py * vdesk.panner_scale)

let pan_to_pointer (ctx : Ctx.t) ~screen ~panner_pos =
  let desktop_pos = desktop_pos_of_panner_pos ctx ~screen panner_pos in
  let sw, sh = Server.screen_size ctx.server ~screen in
  pan_to ctx ~screen (Geom.point (desktop_pos.px - (sw / 2)) (desktop_pos.py - (sh / 2)))

let panner_resized (ctx : Ctx.t) (client : Ctx.client) (w, h) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk when Xid.equal vdesk.panner_client client.cwin ->
      let scale = vdesk.panner_scale in
      let sw, sh = Server.screen_size ctx.server ~screen:client.screen in
      let dw = max sw (w * scale) and dh = max sh (h * scale) in
      let limited w = min w 32767 in
      Vdesk.resize_desktop ctx ~screen:client.screen (limited dw, limited dh);
      refresh ctx ~screen:client.screen
  | Some _ | None -> ()

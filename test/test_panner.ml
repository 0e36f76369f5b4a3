module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Panner = Swm_core.Panner
module Templates = Swm_core.Templates
module Functions = Swm_core.Functions
module Decoration = Swm_core.Decoration
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

(* OpenLook template: virtual desktop 3456x2700, panner on, scale 24. *)
let fixture ?(extra = "") () =
  let server = Server.create () in
  let wm =
    Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ^ extra ] server
  in
  (server, wm, Wm.ctx wm)

let panner_client ctx wm =
  match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk when not (Xid.is_none vdesk.Ctx.panner_client) ->
      Option.get (Wm.find_client wm vdesk.Ctx.panner_client)
  | _ -> Alcotest.fail "no panner"

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let test_panner_is_managed_sticky_client () =
  let server, wm, ctx = fixture () in
  let pc = panner_client ctx wm in
  check Alcotest.bool "sticky" true pc.Ctx.sticky;
  check Alcotest.bool "reparented" false (Xid.equal pc.Ctx.frame pc.Ctx.cwin);
  check Alcotest.bool "visible" true (Server.is_viewable server pc.Ctx.cwin);
  check Alcotest.string "class" "Panner" pc.Ctx.class_

let test_panner_size_follows_scale () =
  let server, wm, ctx = fixture () in
  let pc = panner_client ctx wm in
  let g = Server.geometry server pc.Ctx.cwin in
  check Alcotest.int "width = desktop/scale" (3456 / 24) g.w;
  check Alcotest.int "height = desktop/scale" (2700 / 24) g.h;
  ignore ctx

let test_miniatures_track_clients () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  let client = client_of wm app in
  (* Find the miniature for our client. *)
  let minis =
    List.filter_map
      (fun w -> Option.map (fun c -> (w, c)) (Panner.client_of_miniature ctx w))
      (Server.children_of server pc.Ctx.cwin)
  in
  (match List.find_opt (fun (_, c) -> c == client) minis with
  | Some (mini, _) ->
      let mg = Server.geometry server mini in
      let fg = Server.geometry server client.Ctx.frame in
      check Alcotest.int "mini x = frame x / scale" (fg.x / 24) mg.x;
      check Alcotest.int "mini y" (fg.y / 24) mg.y
  | None -> Alcotest.fail "no miniature for client")

let test_miniature_hidden_for_iconic_and_sticky () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let count_minis () =
    List.length
      (List.filter
         (fun w -> Panner.client_of_miniature ctx w <> None)
         (Server.children_of server pc.Ctx.cwin))
  in
  check Alcotest.int "one miniature" 1 (count_minis ());
  Swm_core.Icons.iconify ctx client;
  Panner.refresh ctx ~screen:0;
  check Alcotest.int "iconic client not shown" 0 (count_minis ())

let test_pan_via_button1 () =
  let server, wm, ctx = fixture () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  (* Press button 1 in the panner interior at a spot corresponding to
     desktop position (1200, 960). *)
  let origin =
    Server.translate_coordinates server ~src:pc.Ctx.cwin
      ~dst:(Server.root server ~screen:0) (Geom.point 0 0)
  in
  Server.warp_pointer server ~screen:0
    (Geom.point (origin.px + (1200 / 24)) (origin.py + (960 / 24)));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let o = Vdesk.offset ctx ~screen:0 in
  let sw, sh = Server.screen_size server ~screen:0 in
  check Alcotest.int "viewport centred on press x" (1200 - (sw / 2)) o.px;
  check Alcotest.int "viewport centred on press y" (960 - (sh / 2)) o.py

let test_move_window_via_miniature () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let mini =
    List.find
      (fun w ->
        match Panner.client_of_miniature ctx w with
        | Some c -> c == client
        | None -> false)
      (Server.children_of server pc.Ctx.cwin)
  in
  (* Button 2 on the miniature starts a move... *)
  let mini_abs = Server.root_geometry server mini in
  Server.warp_pointer server ~screen:0 (Geom.point (mini_abs.x + 1) (mini_abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  (match ctx.Ctx.mode with
  | Ctx.Moving _ -> ()
  | _ -> Alcotest.fail "expected interactive move");
  (* ... dragging within the panner repositions on the whole desktop. *)
  let panner_abs = Server.root_geometry server pc.Ctx.cwin in
  Server.warp_pointer server ~screen:0
    (Geom.point (panner_abs.x + (2400 / 24)) (panner_abs.y + (1800 / 24)));
  ignore (Wm.step wm);
  Server.release_button server 2;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.int "dropped at desktop x" 2400 fg.x;
  check Alcotest.int "dropped at desktop y" 1800 fg.y;
  check Alcotest.bool "mode idle again" true (ctx.Ctx.mode = Ctx.Idle)

let test_move_crossing_out_of_panner () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let mini =
    List.find
      (fun w ->
        match Panner.client_of_miniature ctx w with
        | Some c -> c == client
        | None -> false)
      (Server.children_of server pc.Ctx.cwin)
  in
  let mini_abs = Server.root_geometry server mini in
  Server.warp_pointer server ~screen:0 (Geom.point (mini_abs.x + 1) (mini_abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  (* Drag out of the panner: now the window follows the pointer at full
     scale on the visible desktop. *)
  Server.warp_pointer server ~screen:0 (Geom.point 300 200);
  ignore (Wm.step wm);
  Server.release_button server 2;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  let o = Vdesk.offset ctx ~screen:0 in
  check Alcotest.bool "near the pointer's desktop position" true
    (abs (fg.x - (300 + o.px)) < 40 && abs (fg.y - (200 + o.py)) < 40)

let test_panner_resize_resizes_desktop () =
  let server, wm, ctx = fixture () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  Swm_core.Decoration.client_resized ctx pc (200, 150);
  Panner.panner_resized ctx pc (200, 150);
  match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk ->
      check Alcotest.bool "desktop resized" true (vdesk.Ctx.vsize = (200 * 24, 150 * 24));
      ignore server
  | None -> Alcotest.fail "vdesk"

(* -------- in-place update: exact work counts -------- *)

let vdesk_of ctx = Option.get (Ctx.screen ctx 0).Ctx.vdesk

let panner_children server ctx =
  Server.children_of server (vdesk_of ctx).Ctx.panner_client

let requests_during server f =
  let before = Server.request_count server in
  f ();
  Server.request_count server - before

(* [n] managed xterms spread over [area] (by default the whole desktop). *)
let spread_clients ?(area = (3000, 2400)) server wm n =
  let aw, ah = area in
  let apps =
    List.init n (fun i ->
        Stock.xterm server
          ~at:(Geom.point (i * 131 mod aw) (i * 97 mod ah))
          ~instance:(Printf.sprintf "x%d" i) ())
  in
  ignore (Wm.step wm);
  apps

(* Press button 1 in the panner over desktop position [desk]; returns the
   requests the press cost. *)
let press_panner server wm ctx (desk : Geom.point) =
  let pc = panner_client ctx wm in
  let origin = Server.root_geometry server pc.Ctx.cwin in
  Server.warp_pointer server ~screen:0
    (Geom.point (origin.x + (desk.px / 24)) (origin.y + (desk.py / 24)));
  ignore (Wm.step wm);
  requests_during server (fun () ->
      Server.press_button server 1;
      ignore (Wm.step wm))

let run_fn ctx ?client fname farg =
  Functions.execute ctx
    (Functions.invocation ?client ~screen:0 ())
    [ { Swm_core.Bindings.fname; farg } ]

(* A whole button-1 pan as perfbench's [pan] runs it: warp into the panner
   over desktop position [desk], press, release, one WM step. *)
let button1_pan server wm ctx (desk : Geom.point) =
  let origin = Server.root_geometry server (panner_client ctx wm).Ctx.cwin in
  Server.warp_pointer server ~screen:0
    (Geom.point (origin.x + (desk.px / 24)) (origin.y + (desk.py / 24)));
  Server.press_button server 1;
  Server.release_button server 1;
  ignore (Wm.step wm)

(* Requests and minor words of [pan ()], each the minimum over 8 identical
   runs after one warm-up.  [away ()] (untimed) pans elsewhere first, so
   every timed pan moves the viewport the same way. *)
let steady_cost server ~away pan =
  let once () =
    away ();
    let r0 = Server.request_count server and w0 = Gc.minor_words () in
    pan ();
    let w1 = Gc.minor_words () in
    (Server.request_count server - r0, w1 -. w0)
  in
  ignore (once ());
  List.fold_left
    (fun (r, w) (r', w') -> (min r r', Float.min w w'))
    (max_int, Float.infinity)
    (List.init 8 (fun _ -> once ()))

let test_pan_cost_independent_of_clients () =
  let pan_cost n =
    let server, wm, ctx = fixture () in
    ignore (spread_clients server wm n);
    let cost = press_panner server wm ctx (Geom.point 2400 1800) in
    check Alcotest.bool "the desktop panned" true ((Vdesk.offset ctx ~screen:0).px > 0);
    cost
  in
  check Alcotest.int "requests per pan, 10 vs 100 clients" (pan_cost 10) (pan_cost 100);
  let button1 n =
    (* The clients keep to the left, so both presses land on the panner
       itself, not on a miniature, whatever [n] is. *)
    let server, wm, ctx = fixture () in
    ignore (spread_clients ~area:(1400, 2300) server wm n);
    steady_cost server
      ~away:(fun () -> button1_pan server wm ctx (Geom.point 2500 600))
      (fun () -> button1_pan server wm ctx (Geom.point 3000 2300))
  in
  let panto n =
    let server, wm, ctx = fixture ~extra:"swm*scrollbars: True\n" () in
    ignore (spread_clients server wm n);
    steady_cost server
      ~away:(fun () -> run_fn ctx "f.panto" (Some "100,80"))
      (fun () -> run_fn ctx "f.panto" (Some "1900,1500"))
  in
  List.iter
    (fun (what, cost) ->
      let r10, w10 = cost 10 and r100, w100 = cost 100 in
      check Alcotest.bool (what ^ " sends requests") true (r10 > 0);
      check Alcotest.int (what ^ ": requests, 10 vs 100 clients") r10 r100;
      check (Alcotest.float 0.) (what ^ ": minor words, 10 vs 100 clients") w10 w100)
    [ ("button-1 pan", button1); ("f.panto with scrollbars", panto) ]

let test_miniatures_survive_pan () =
  let server, wm, ctx = fixture () in
  ignore (spread_clients server wm 20);
  let before = panner_children server ctx in
  check Alcotest.int "outline + 20 miniatures" 21 (List.length before);
  ignore (press_panner server wm ctx (Geom.point 2400 1800));
  check Alcotest.bool "the desktop panned" true ((Vdesk.offset ctx ~screen:0).px > 0);
  check (Alcotest.list Alcotest.int) "same windows, same order"
    (List.map Xid.to_int before)
    (List.map Xid.to_int (panner_children server ctx))

let test_idle_refresh_sends_nothing () =
  List.iter
    (fun extra ->
      let server, wm, ctx = fixture ~extra () in
      ignore (spread_clients server wm 10);
      Panner.refresh ctx ~screen:0;
      check Alcotest.int
        (Printf.sprintf "no requests (%S)" extra)
        0
        (requests_during server (fun () -> Panner.refresh ctx ~screen:0)))
    [ ""; "swm*scrollbars: True\n" ]

let test_one_move_one_request () =
  let server, wm, ctx = fixture () in
  let apps = spread_clients server wm 10 in
  let client = client_of wm (List.nth apps 4) in
  Decoration.move_frame ctx client (Geom.point 1000 700);
  check Alcotest.int "one ConfigureWindow, for the moved miniature" 1
    (requests_during server (fun () -> Panner.refresh ctx ~screen:0));
  let g = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "miniature at frame/scale" true
    (Geom.rect_equal
       (Server.geometry server client.Ctx.panner_mini)
       (Geom.rect (g.x / 24) (g.y / 24) (g.w / 24) (g.h / 24)))

(* A wider title widens the frame, and the WM moves the miniature after
   it by itself: no later pan repairs it. *)
let test_retitle_resizes_miniature () =
  let server, wm, _ = fixture () in
  let apps = spread_clients server wm 3 in
  let app = List.nth apps 1 in
  let client = client_of wm app in
  let before = Server.geometry server client.Ctx.frame in
  Client_app.set_name app (String.make 400 'W');
  ignore (Wm.step wm);
  let g = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "the frame widened" true (g.w / 24 > before.w / 24);
  check Alcotest.bool "miniature at frame/scale" true
    (Geom.rect_equal
       (Server.geometry server client.Ctx.panner_mini)
       (Geom.rect (g.x / 24) (g.y / 24) (g.w / 24) (g.h / 24)))

(* Raising or lowering one window moves its frame and its miniature: one
   request each, however many miniatures there are. *)
let test_restack_one_request () =
  let server, wm, ctx = fixture () in
  let apps = spread_clients server wm 10 in
  let client = client_of wm (List.nth apps 3) in
  List.iter
    (fun (fname, pos) ->
      check Alcotest.int (fname ^ " requests") 2
        (requests_during server (fun () -> run_fn ctx ~client fname None));
      check Alcotest.int (fname ^ " stacks the miniature") pos
        (let rec index i = function
           | w :: tl -> if Xid.equal w client.Ctx.panner_mini then i else index (i + 1) tl
           | [] -> -1
         in
         index 0 (panner_children server ctx)))
    [ ("f.raise", 10); ("f.lower", 1) ]

(* A client destroyed while the reduced tier skips panner refreshes must not
   leave behind a miniature that still starts moves of the dead client. *)
let test_degraded_unmanage_drops_miniature () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  let mini =
    List.find
      (fun w -> Panner.client_of_miniature ctx w <> None)
      (Server.children_of server pc.Ctx.cwin)
  in
  let mini_abs = Server.root_geometry server mini in
  ctx.Ctx.tier <- Ctx.Tier_reduced;
  Client_app.destroy app;
  ignore (Wm.step wm);
  check Alcotest.bool "miniature destroyed" false (Server.window_exists server mini);
  check Alcotest.bool "no client behind the old miniature" true
    (Panner.client_of_miniature ctx mini = None);
  Server.warp_pointer server ~screen:0 (Geom.point (mini_abs.x + 1) (mini_abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  check Alcotest.bool "button 2 there starts no move" true (ctx.Ctx.mode = Ctx.Idle)

(* -------- in-place update against a rebuild model -------- *)

type op =
  | Manage of int * int
  | Move of int * int * int
  | Raise of int
  | Lower of int
  | Iconify of int
  | Deiconify of int
  | Stick of int
  | Unstick of int
  | Pan of int * int
  | Desktop of int
  | Destroy of int
  | Press_panner of int * int  (* button 1 at a panner-interior position *)
  | Press_mini of int  (* button 1 on a client's miniature *)
  | Press_bar of bool * int  (* button 1 along the horizontal (true) or vertical bar *)
  | F_pan of int * int
  | F_panto of int * int
  | Retitle of int * int  (* a new WM_NAME of that many characters *)
  | Reduced of op  (* the op, while the reduced tier skips panner refreshes *)

let rec show_op = function
  | Manage (x, y) -> Printf.sprintf "manage %d,%d" x y
  | Move (i, x, y) -> Printf.sprintf "move #%d %d,%d" i x y
  | Raise i -> Printf.sprintf "raise #%d" i
  | Lower i -> Printf.sprintf "lower #%d" i
  | Iconify i -> Printf.sprintf "iconify #%d" i
  | Deiconify i -> Printf.sprintf "deiconify #%d" i
  | Stick i -> Printf.sprintf "stick #%d" i
  | Unstick i -> Printf.sprintf "unstick #%d" i
  | Pan (x, y) -> Printf.sprintf "pan %d,%d" x y
  | Desktop n -> Printf.sprintf "desktop %d" n
  | Destroy i -> Printf.sprintf "destroy #%d" i
  | Press_panner (x, y) -> Printf.sprintf "button 1 in the panner at %d,%d" x y
  | Press_mini i -> Printf.sprintf "button 1 on miniature #%d" i
  | Press_bar (h, t) -> Printf.sprintf "button 1 on the %s bar at %d" (if h then "h" else "v") t
  | F_pan (dx, dy) -> Printf.sprintf "f.pan %d,%d" dx dy
  | F_panto (x, y) -> Printf.sprintf "f.panto %d,%d" x y
  | Retitle (i, n) -> Printf.sprintf "retitle #%d to %d chars" i n
  | Reduced op -> "reduced (" ^ show_op op ^ ")"

let op_gen =
  let open QCheck2.Gen in
  let idx = int_bound 15 and x = int_bound 3300 and y = int_bound 2600 in
  let base =
    frequency
      [
        (4, map2 (fun x y -> Manage (x, y)) x y);
        (3, map3 (fun i x y -> Move (i, x, y)) idx x y);
        (2, map (fun i -> Raise i) idx);
        (2, map (fun i -> Lower i) idx);
        (1, map (fun i -> Iconify i) idx);
        (1, map (fun i -> Deiconify i) idx);
        (1, map (fun i -> Stick i) idx);
        (1, map (fun i -> Unstick i) idx);
        (2, map2 (fun x y -> Pan (x, y)) x y);
        (1, map (fun n -> Desktop n) (int_bound 1));
        (1, map (fun i -> Destroy i) idx);
        (2, map2 (fun x y -> Press_panner (x, y)) (int_bound 143) (int_bound 111));
        (1, map (fun i -> Press_mini i) idx);
        (1, map2 (fun h t -> Press_bar (h, t)) bool (int_bound 1200));
        (1, map2 (fun dx dy -> F_pan (dx, dy)) (int_range (-1500) 1500) (int_range (-1500) 1500));
        (1, map2 (fun x y -> F_panto (x, y)) x y);
        (2, map2 (fun i n -> Retitle (i, n)) idx (int_range 1 400));
      ]
  in
  frequency [ (5, base); (1, map (fun op -> Reduced op) base) ]

(* What a from-scratch rebuild draws: the outline at viewport/scale, then
   one miniature per client on the current desktop that is neither sticky,
   iconic nor the panner, bottom to top in desktop stacking order, at
   frame/scale. *)
let model server ctx =
  let vdesk = vdesk_of ctx in
  let scale = vdesk.Ctx.panner_scale in
  let scaled (g : Geom.rect) =
    Geom.rect (g.x / scale) (g.y / scale) (max 1 (g.w / scale)) (max 1 (g.h / scale))
  in
  let shown =
    List.filter_map
      (fun frame ->
        match Ctx.client_of_window ctx frame with
        | Some c
          when Xid.equal c.Ctx.frame frame && c.Ctx.state = Prop.Normal
               && (not c.Ctx.sticky)
               && not (Xid.equal c.Ctx.cwin vdesk.Ctx.panner_client) ->
            Some (c, scaled (Server.geometry server frame))
        | Some _ | None -> None)
      (Server.children_of server vdesk.Ctx.vwins.(vdesk.Ctx.current))
  in
  (scaled (Vdesk.viewport ctx ~screen:0), shown)

(* The scrollbar thumbs show the viewport's slice of the desktop. *)
let thumbs_match_model server ctx =
  let scr = Ctx.screen ctx 0 in
  let dw, dh = (vdesk_of ctx).Ctx.vsize in
  let vp = Vdesk.viewport ctx ~screen:0 in
  let thumb ~bar_len ~desktop_len ~view_pos ~view_len =
    (view_pos * bar_len / desktop_len, max 4 (view_len * bar_len / desktop_len))
  in
  match (scr.Ctx.hbar, scr.Ctx.vbar) with
  | Some (hbar, hthumb), Some (vbar, vthumb) ->
      let hpos, hlen =
        thumb ~bar_len:(Server.geometry server hbar).w ~desktop_len:dw ~view_pos:vp.x
          ~view_len:vp.w
      and vpos, vlen =
        thumb ~bar_len:(Server.geometry server vbar).h ~desktop_len:dh ~view_pos:vp.y
          ~view_len:vp.h
      in
      Geom.rect_equal (Server.geometry server hthumb) (Geom.rect hpos 1 hlen 10)
      && Geom.rect_equal (Server.geometry server vthumb) (Geom.rect 1 vpos 10 vlen)
  | _ -> false

let panner_matches_model server ctx =
  let outline_geom, minis = model server ctx in
  match panner_children server ctx with
  | [] -> false
  | outline :: rest ->
      Panner.client_of_miniature ctx outline = None
      && Server.is_mapped server outline
      && Geom.rect_equal (Server.geometry server outline) outline_geom
      && List.length rest = List.length minis
      && List.for_all2
           (fun w ((c : Ctx.client), geom) ->
             Xid.equal c.Ctx.panner_mini w
             && (match Panner.client_of_miniature ctx w with
                | Some c' -> c' == c
                | None -> false)
             && Server.is_mapped server w
             && Geom.rect_equal (Server.geometry server w) geom)
           rest minis
      && Xid.Tbl.length ctx.Ctx.panner_minis = List.length minis

(* The ops whose WM-side handling must keep the panner up to date by
   itself, so the harness adds no refresh after them: the pans, which go
   through [Panner.pan_to], and a retitle, which can resize the frame. *)
let rec wm_refreshes = function
  | Press_panner _ | Press_mini _ | Press_bar _ | F_pan _ | F_panto _ | Retitle _ -> true
  | Reduced op -> wm_refreshes op
  | Manage _ | Move _ | Raise _ | Lower _ | Iconify _ | Deiconify _ | Stick _
  | Unstick _ | Pan _ | Desktop _ | Destroy _ ->
      false

(* Button 1 at root position [p], if the window there is one of [targets]
   (anything else, such as a sticky window over a scrollbar, would make it
   some other op). *)
let press_if server wm p targets =
  if targets (Server.window_at server ~screen:0 p) then begin
    Server.warp_pointer server ~screen:0 p;
    ignore (Wm.step wm);
    Server.press_button server 1;
    ignore (Wm.step wm);
    Server.release_button server 1;
    ignore (Wm.step wm)
  end

(* The pans go through [Panner.pan_to], which updates only the thumbs and
   the outline, and a retitle is checked after the WM's own handling; every
   other op is followed by a full refresh.  Ops under the reduced tier are
   not checked: their skipped refreshes pile up until the next full-tier
   op, before which one refresh (the governor's restore) must repair them
   all.  After every full-tier op the panner must match the model. *)
let prop_panner_matches_rebuild =
  QCheck2.Test.make ~name:"panner matches a rebuild after every refresh" ~count:200
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 30) op_gen)
    (fun ops ->
      let server, wm, ctx =
        fixture ~extra:"swm*desktops: 2\nswm*scrollbars: True\n" ()
      in
      let panner = (vdesk_of ctx).Ctx.panner_client in
      let in_panner w =
        Xid.equal w panner
        || ((not (Xid.is_none (Server.parent_of server w)))
           && Xid.equal (Server.parent_of server w) panner)
      in
      let apps = ref [] and launched = ref 0 in
      let nth i =
        match !apps with [] -> None | l -> Some (List.nth l (i mod List.length l))
      in
      let on i f = match nth i with Some app -> f (client_of wm app) | None -> () in
      let run = run_fn ctx in
      let rec apply = function
        | Manage (x, y) ->
            incr launched;
            let app =
              Stock.xterm server ~at:(Geom.point x y)
                ~instance:(Printf.sprintf "d%d" !launched) ()
            in
            apps := !apps @ [ app ]
        | Move (i, x, y) -> on i (fun c -> Decoration.move_frame ctx c (Geom.point x y))
        | Raise i -> on i (fun c -> run ~client:c "f.raise" None)
        | Lower i -> on i (fun c -> run ~client:c "f.lower" None)
        | Iconify i -> on i (fun c -> run ~client:c "f.iconify" None)
        | Deiconify i -> on i (fun c -> run ~client:c "f.deiconify" None)
        | Stick i -> on i (fun c -> run ~client:c "f.stick" None)
        | Unstick i -> on i (fun c -> run ~client:c "f.unstick" None)
        | Pan (x, y) -> Vdesk.pan_to ctx ~screen:0 (Geom.point x y)
        | Desktop n -> run "f.desktop" (Some (string_of_int n))
        | Destroy i -> (
            match nth i with
            | Some app ->
                Client_app.destroy app;
                apps := List.filter (fun a -> a != app) !apps
            | None -> ())
        | Press_panner (x, y) ->
            let o = Server.root_geometry server panner in
            press_if server wm (Geom.point (o.x + x) (o.y + y)) in_panner
        | Press_mini i ->
            on i (fun c ->
                let mini = c.Ctx.panner_mini in
                if (not (Xid.is_none mini)) && Server.window_exists server mini then begin
                  let g = Server.root_geometry server mini in
                  press_if server wm (Geom.point g.x g.y) (fun w ->
                      Panner.client_of_miniature ctx w <> None)
                end)
        | Press_bar (horizontal, t) -> (
            let scr = Ctx.screen ctx 0 in
            match if horizontal then scr.Ctx.hbar else scr.Ctx.vbar with
            | Some (bar, thumb) ->
                let g = Server.root_geometry server bar in
                let p =
                  if horizontal then Geom.point (g.x + (t mod g.w)) (g.y + 1)
                  else Geom.point (g.x + 1) (g.y + (t mod g.h))
                in
                press_if server wm p (fun w -> Xid.equal w bar || Xid.equal w thumb)
            | None -> ())
        | F_pan (dx, dy) -> run "f.pan" (Some (Printf.sprintf "%d,%d" dx dy))
        | F_panto (x, y) -> run "f.panto" (Some (Printf.sprintf "%d,%d" x y))
        | Retitle (i, n) -> (
            match nth i with
            | Some app -> Client_app.set_name app (String.make n 'W')
            | None -> ())
        | Reduced op ->
            ctx.Ctx.tier <- Ctx.Tier_reduced;
            apply op;
            ignore (Wm.step wm);
            ctx.Ctx.tier <- Ctx.Tier_full
      in
      let pending = ref false in
      let restore () =
        (* What the governor does when it restores the full tier. *)
        if !pending then Panner.refresh ctx ~screen:0;
        pending := false
      in
      let matches () = panner_matches_model server ctx && thumbs_match_model server ctx in
      List.for_all
        (function
          | Reduced _ as op ->
              apply op;
              pending := true;
              true
          | op ->
              restore ();
              apply op;
              ignore (Wm.step wm);
              if not (wm_refreshes op) then Panner.refresh ctx ~screen:0;
              matches ())
        ops
      && (not !pending || (restore (); matches ())))

let suite =
  [
    Alcotest.test_case "panner is a managed sticky client" `Quick
      test_panner_is_managed_sticky_client;
    Alcotest.test_case "panner size from scale" `Quick test_panner_size_follows_scale;
    Alcotest.test_case "miniatures track clients" `Quick test_miniatures_track_clients;
    Alcotest.test_case "iconic clients have no miniature" `Quick
      test_miniature_hidden_for_iconic_and_sticky;
    Alcotest.test_case "button-1 pans" `Quick test_pan_via_button1;
    Alcotest.test_case "button-2 moves via miniature" `Quick
      test_move_window_via_miniature;
    Alcotest.test_case "move crossing out of the panner" `Quick
      test_move_crossing_out_of_panner;
    Alcotest.test_case "resizing panner resizes desktop" `Quick
      test_panner_resize_resizes_desktop;
    Alcotest.test_case "pan cost is independent of the client count" `Quick
      test_pan_cost_independent_of_clients;
    Alcotest.test_case "miniatures survive a pan" `Quick test_miniatures_survive_pan;
    Alcotest.test_case "an idle refresh sends no request" `Quick
      test_idle_refresh_sends_nothing;
    Alcotest.test_case "one moved window costs one request" `Quick
      test_one_move_one_request;
    Alcotest.test_case "a wider title resizes the miniature" `Quick
      test_retitle_resizes_miniature;
    Alcotest.test_case "raising or lowering one window costs two requests" `Quick
      test_restack_one_request;
    Alcotest.test_case "unmanage in a degraded tier drops the miniature" `Quick
      test_degraded_unmanage_drops_miniature;
    QCheck_alcotest.to_alcotest prop_panner_matches_rebuild;
  ]

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

(* [n] managed xterms spread over the whole desktop. *)
let spread_clients server wm n =
  let apps =
    List.init n (fun i ->
        Stock.xterm server
          ~at:(Geom.point (i * 131 mod 3000) (i * 97 mod 2400))
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

let test_pan_cost_independent_of_clients () =
  let pan_cost n =
    let server, wm, ctx = fixture () in
    ignore (spread_clients server wm n);
    let cost = press_panner server wm ctx (Geom.point 2400 1800) in
    check Alcotest.bool "the desktop panned" true ((Vdesk.offset ctx ~screen:0).px > 0);
    cost
  in
  check Alcotest.int "requests per pan, 10 vs 100 clients" (pan_cost 10) (pan_cost 100)

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

let run_fn ctx ?client fname farg =
  Functions.execute ctx
    (Functions.invocation ?client ~screen:0 ())
    [ { Swm_core.Bindings.fname; farg } ]

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

let prop_panner_matches_rebuild =
  QCheck2.Test.make ~name:"panner matches a rebuild after every refresh" ~count:200
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 30) op_gen)
    (fun ops ->
      let server, wm, ctx = fixture ~extra:"swm*desktops: 2\n" () in
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
        | Reduced op ->
            ctx.Ctx.tier <- Ctx.Tier_reduced;
            apply op;
            ignore (Wm.step wm);
            ctx.Ctx.tier <- Ctx.Tier_full
      in
      List.for_all
        (fun op ->
          apply op;
          match op with
          | Reduced _ -> true
          | _ ->
              ignore (Wm.step wm);
              Panner.refresh ctx ~screen:0;
              panner_matches_model server ctx)
        ops)

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
    Alcotest.test_case "raising or lowering one window costs two requests" `Quick
      test_restack_one_request;
    Alcotest.test_case "unmanage in a degraded tier drops the miniature" `Quick
      test_degraded_unmanage_drops_miniature;
    QCheck_alcotest.to_alcotest prop_panner_matches_rebuild;
  ]

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Functions = Swm_core.Functions
module Bindings = Swm_core.Bindings
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

let fixture ?(extra = "") () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ^ extra ]
      server
  in
  (server, wm, Wm.ctx wm)

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let run ctx ?client funcs_text =
  let inv = Functions.invocation ?client ~screen:0 () in
  match Functions.execute_string ctx inv funcs_text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "execute %S: %s" funcs_text msg

let top_of_stack server win =
  let parent = Server.parent_of server win in
  match List.rev (Server.children_of server parent) with
  | top :: _ -> Xid.equal top win
  | [] -> false

let test_raise_lower () =
  let server, wm, ctx = fixture () in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  let b = Stock.xterm server ~at:(Geom.point 50 50) ~instance:"xterm2" () in
  ignore (Wm.step wm);
  let ca = client_of wm a and cb = client_of wm b in
  run ctx ~client:ca "f.raise";
  check Alcotest.bool "a on top" true (top_of_stack server ca.Ctx.frame);
  run ctx ~client:cb "f.raise";
  check Alcotest.bool "b on top" true (top_of_stack server cb.Ctx.frame);
  run ctx ~client:cb "f.lower";
  check Alcotest.bool "b no longer on top" false (top_of_stack server cb.Ctx.frame)

let test_save_zoom_restore () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let before = Server.geometry server client.Ctx.frame in
  run ctx ~client "f.save f.zoom";
  let zoomed = Server.geometry server client.Ctx.frame in
  let sw, sh = Server.screen_size server ~screen:0 in
  check Alcotest.bool "zoomed to screen size" true
    (zoomed.w > (sw * 3 / 4) && zoomed.h > (sh * 3 / 4));
  check Alcotest.bool "bigger than before" true (zoomed.w > before.w);
  run ctx ~client "f.save f.zoom";
  let restored = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "restored" true (Geom.rect_equal restored before)

(* A moved frame stays where it was put.  Each step below moves the frame
   (a move, a zoom, a stick) and then runs something that re-lays the
   decoration out (a wider title, a client resize); the frame must not
   jump back to where it was built. *)
let test_moved_frame_stays_put () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 56 56) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pos () =
    let g = Server.geometry server client.Ctx.frame in
    (g.Geom.x, g.Geom.y)
  in
  let at = Alcotest.(pair int int) in
  Swm_core.Decoration.move_frame ctx client (Geom.point 156 136);
  Client_app.set_name app "a title much wider than the one it had before";
  ignore (Wm.step wm);
  check at "move then wider retitle" (156, 136) (pos ());
  Swm_core.Decoration.move_frame ctx client (Geom.point 200 180);
  let g = Server.geometry server client.Ctx.cwin in
  Swm_core.Decoration.client_resized ctx client (g.Geom.w + 40, g.Geom.h + 30);
  check at "move then resize" (200, 180) (pos ());
  run ctx ~client "f.save f.zoom";
  let zoomed = pos () in
  (* Wider than the zoomed frame, so the retitle changes the frame's size. *)
  Client_app.set_name app (String.make 400 'W');
  ignore (Wm.step wm);
  check at "zoom then retitle" zoomed (pos ());
  (* On a panned virtual desktop, f.stick reparents the frame to the root
     at its on-glass position. *)
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  let ctx = Wm.ctx wm in
  let app = Stock.xterm server ~at:(Geom.point 56 56) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  Swm_core.Vdesk.pan_to ctx ~screen:0 (Geom.point 300 200);
  run ctx ~client "f.stick";
  let stuck = Server.geometry server client.Ctx.frame in
  Client_app.set_name app (String.make 200 'W');
  ignore (Wm.step wm);
  let g = Server.geometry server client.Ctx.frame in
  check at "stick then retitle" (stuck.x, stuck.y) (g.x, g.y)

let test_iconify_by_class () =
  let server, wm, ctx = fixture () in
  let t1 = Stock.xterm server () in
  let t2 = Stock.xterm server ~instance:"xterm2" () in
  let clock = Stock.xclock server () in
  ignore (Wm.step wm);
  run ctx "f.iconify(XTerm)";
  check Alcotest.bool "xterm 1 iconic" true ((client_of wm t1).Ctx.state = Prop.Iconic);
  check Alcotest.bool "xterm 2 iconic" true ((client_of wm t2).Ctx.state = Prop.Iconic);
  check Alcotest.bool "xclock untouched" true
    ((client_of wm clock).Ctx.state = Prop.Normal)

let test_multiple_with_confirm () =
  let server, wm, ctx = fixture () in
  let t1 = Stock.xterm server () in
  let clock = Stock.xclock server () in
  ignore (Wm.step wm);
  (* Confirm only the xterm. *)
  ctx.Ctx.confirm <- (fun name -> name = "xterm");
  run ctx "f.iconify(multiple)";
  check Alcotest.bool "confirmed one iconified" true
    ((client_of wm t1).Ctx.state = Prop.Iconic);
  check Alcotest.bool "declined one untouched" true
    ((client_of wm clock).Ctx.state = Prop.Normal)

let test_window_id_target () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let id = Xid.to_int (Client_app.window app) in
  run ctx (Printf.sprintf "f.iconify(#%d)" id);
  check Alcotest.bool "targeted by id" true ((client_of wm app).Ctx.state = Prop.Iconic)

let test_under_pointer_target () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  Server.warp_pointer server ~screen:0 (Geom.point 150 150);
  ignore (Wm.step wm);
  run ctx "f.iconify(#$)";
  check Alcotest.bool "window under pointer" true
    ((client_of wm app).Ctx.state = Prop.Iconic)

let test_prompting_mode () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  (* No current window: the function parks. *)
  run ctx "f.iconify";
  (match ctx.Ctx.mode with
  | Ctx.Prompting [ { Bindings.fname = "f.iconify"; _ } ] -> ()
  | _ -> Alcotest.fail "expected prompting mode");
  (* Clicking the client completes it. *)
  Server.warp_pointer server ~screen:0 (Geom.point 150 150);
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "target iconified" true
    ((client_of wm app).Ctx.state = Prop.Iconic);
  check Alcotest.bool "back to idle" true (ctx.Ctx.mode = Ctx.Idle)

let test_prompting_runs_remaining_functions () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let before = Server.geometry server client.Ctx.frame in
  run ctx "f.save f.zoom";
  (* f.save needed a window: both functions wait for the pick. *)
  Server.warp_pointer server ~screen:0 (Geom.point 150 150);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let zoomed = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "zoom ran after prompt" true (zoomed.w > before.w)

let test_exec_records () =
  let _server, _wm, ctx = fixture () in
  run ctx "f.exec(xterm -geometry 80x24)";
  check (Alcotest.list Alcotest.string) "recorded" [ "xterm -geometry 80x24" ]
    ctx.Ctx.executed

let test_quit_and_restart () =
  let _server, _wm, ctx = fixture () in
  run ctx "f.quit";
  check Alcotest.bool "stopped" false ctx.Ctx.running;
  ctx.Ctx.running <- true;
  run ctx "f.restart";
  check Alcotest.bool "restart flag" true ctx.Ctx.restart_requested

let test_delete () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.delete";
  ignore (Wm.step wm);
  check Alcotest.bool "window destroyed" false
    (Server.window_exists server (Client_app.window app));
  check Alcotest.bool "unmanaged" true (Wm.find_client wm (Client_app.window app) = None)

let test_focus () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.focus";
  check Alcotest.bool "focus set" true
    (Xid.equal (Server.input_focus server) client.Ctx.cwin)

let test_warp () =
  let server, _wm, ctx = fixture () in
  Server.warp_pointer server ~screen:0 (Geom.point 100 100);
  run ctx "f.warpVertical(-50)";
  check Alcotest.bool "warped up" true
    (Server.pointer_pos server = Geom.point 100 50);
  run ctx "f.warpHorizontal(30)";
  check Alcotest.bool "warped right" true
    (Server.pointer_pos server = Geom.point 130 50)

let test_stick_toggle () =
  let server = Server.create () in
  let wm =
    Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\nswm*panner: False\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  let app = Stock.xclock server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.stick";
  check Alcotest.bool "stuck" true client.Ctx.sticky;
  run ctx ~client "f.stick";
  check Alcotest.bool "unstuck (toggle)" false client.Ctx.sticky;
  run ctx ~client "f.stick";
  run ctx ~client "f.unstick";
  check Alcotest.bool "f.unstick" false client.Ctx.sticky

let test_sticky_decoration_requery () =
  (* Paper §6.2: decorations can depend on stickiness. *)
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [
          Templates.open_look;
          {|swm*rootPanels:
swm*panner: False
Swm*panel.stickyPanel: button name +C+0 panel client +0+1
swm*sticky*decoration: stickyPanel
|};
        ]
      server
  in
  let ctx = Wm.ctx wm in
  let app = Stock.xclock server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.stick";
  ignore (Wm.step wm);
  (match client.Ctx.deco with
  | Some deco ->
      check Alcotest.string "sticky decoration in force" "stickyPanel"
        (Swm_oi.Wobj.name deco)
  | None -> Alcotest.fail "no decoration");
  run ctx ~client "f.stick";
  ignore (Wm.step wm);
  match client.Ctx.deco with
  | Some deco ->
      check Alcotest.string "normal decoration restored" "openLook"
        (Swm_oi.Wobj.name deco)
  | None -> Alcotest.fail "no decoration"

let test_menu_post_via_function () =
  let _server, _wm, ctx = fixture () in
  run ctx "f.menu(windowMenu)";
  let scr = Ctx.screen ctx 0 in
  (match scr.Ctx.active_menu with
  | Some (menu, _) ->
      check Alcotest.bool "posted" true (Swm_oi.Menu.is_posted menu)
  | None -> Alcotest.fail "menu not posted");
  run ctx "f.unpostMenu";
  check Alcotest.bool "unposted" true (scr.Ctx.active_menu = None)

let test_places_records_content () =
  let server, wm, ctx = fixture () in
  let _app = Stock.xterm server ~at:(Geom.point 10 20) () in
  ignore (Wm.step wm);
  run ctx "f.places";
  match ctx.Ctx.last_places with
  | Some content ->
      check Alcotest.bool "mentions swmhints" true
        (Astring_contains.contains content "swmhints");
      check Alcotest.bool "mentions the client command" true
        (Astring_contains.contains content "xterm -geometry")
  | None -> Alcotest.fail "no places output"

let test_function_macro () =
  (* f.function(name) runs the swm*function.<name> resource list. *)
  let server, wm, ctx =
    fixture ~extra:"swm*function.parkIt: f.save f.zoom\n" ()
  in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let before = Server.geometry server client.Ctx.frame in
  run ctx ~client "f.function(parkIt)";
  let zoomed = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "macro expanded and ran" true (zoomed.w > before.w)

let test_function_macro_cycle_guard () =
  let _server, _wm, ctx =
    fixture ~extra:"swm*function.loop: f.function(loop)\n" ()
  in
  (* Must terminate (depth guard), not loop forever. *)
  run ctx "f.function(loop)"

let test_delete_icccm_protocol () =
  let server, wm, ctx = fixture () in
  let polite =
    Client_app.launch server
      (Client_app.spec ~instance:"polite" ~graceful_delete:true (Geom.rect 0 0 60 60))
  in
  let rude =
    Client_app.launch server (Client_app.spec ~instance:"rude" (Geom.rect 80 0 60 60))
  in
  ignore (Wm.step wm);
  let polite_client = client_of wm polite and rude_client = client_of wm rude in
  run ctx ~client:polite_client "f.delete";
  (* The polite client still exists until it processes the message... *)
  check Alcotest.bool "not force-destroyed" true
    (Server.window_exists server (Client_app.window polite));
  ignore (Client_app.process_events polite);
  ignore (Wm.step wm);
  check Alcotest.bool "closed itself" false
    (Server.window_exists server (Client_app.window polite));
  (* The rude client is simply destroyed. *)
  run ctx ~client:rude_client "f.delete";
  ignore (Wm.step wm);
  check Alcotest.bool "rude client destroyed" false
    (Server.window_exists server (Client_app.window rude))

let test_identify_popup () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  Server.warp_pointer server ~screen:0 (Geom.point 400 400);
  ignore (Wm.step wm);
  run ctx ~client "f.identify";
  let popup = ctx.Ctx.identify_win in
  check Alcotest.bool "popup exists" true (Server.window_exists server popup);
  check Alcotest.bool "popup visible" true (Server.is_viewable server popup);
  check Alcotest.bool "shows the class" true
    (match Server.label_of server popup with
    | Some label -> Astring_contains.contains label "XTerm"
    | None -> false);
  (* The next press anywhere dismisses it. *)
  Server.warp_pointer server ~screen:0 (Geom.point 700 700);
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "dismissed" false (Server.window_exists server popup);
  check Alcotest.bool "slot cleared" true (Xid.is_none ctx.Ctx.identify_win)

let test_unknown_function_skipped () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  (* Unknown functions are skipped but reported; the rest still run. *)
  let result =
    Functions.execute_string ctx
      (Functions.invocation ~client ~screen:0 ())
      "f.noSuchThing f.iconify"
  in
  check Alcotest.bool "known function still ran" true
    (client.Ctx.state = Prop.Iconic);
  match result with
  | Error msg ->
      check Alcotest.bool "typo named" true
        (Astring_contains.contains msg "f.noSuchThing")
  | Ok () -> Alcotest.fail "unknown function should be reported"

let suite =
  [
    Alcotest.test_case "f.raise / f.lower" `Quick test_raise_lower;
    Alcotest.test_case "f.save f.zoom toggles" `Quick test_save_zoom_restore;
    Alcotest.test_case "a moved frame stays put" `Quick test_moved_frame_stays_put;
    Alcotest.test_case "class invocation mode" `Quick test_iconify_by_class;
    Alcotest.test_case "multiple with confirmation" `Quick test_multiple_with_confirm;
    Alcotest.test_case "#id invocation mode" `Quick test_window_id_target;
    Alcotest.test_case "#$ under-pointer mode" `Quick test_under_pointer_target;
    Alcotest.test_case "prompting mode" `Quick test_prompting_mode;
    Alcotest.test_case "prompting runs full list" `Quick
      test_prompting_runs_remaining_functions;
    Alcotest.test_case "f.exec records" `Quick test_exec_records;
    Alcotest.test_case "f.quit / f.restart" `Quick test_quit_and_restart;
    Alcotest.test_case "f.delete" `Quick test_delete;
    Alcotest.test_case "f.focus" `Quick test_focus;
    Alcotest.test_case "f.warpVertical / Horizontal" `Quick test_warp;
    Alcotest.test_case "f.stick toggles" `Quick test_stick_toggle;
    Alcotest.test_case "sticky decoration requery" `Quick test_sticky_decoration_requery;
    Alcotest.test_case "f.menu / f.unpostMenu" `Quick test_menu_post_via_function;
    Alcotest.test_case "f.places output" `Quick test_places_records_content;
    Alcotest.test_case "f.function macros" `Quick test_function_macro;
    Alcotest.test_case "f.function cycle guard" `Quick test_function_macro_cycle_guard;
    Alcotest.test_case "f.delete via WM_DELETE_WINDOW" `Quick
      test_delete_icccm_protocol;
    Alcotest.test_case "f.identify popup" `Quick test_identify_popup;
    Alcotest.test_case "unknown functions skipped" `Quick test_unknown_function_skipped;
  ]

(* Seeded input generation.  Everything the program under test receives is
   built here from the seed as plain data: client specs, gesture paths,
   panner positions, titles and window geometry.  The workload executors
   take these values, never the seed. *)

module Geom = Swm_xlib.Geom
module Client_app = Swm_clients.Client_app

let screen_w = 1152
let screen_h = 900
let desktop_w = 3456
let desktop_h = 2700

(* A run makes this many rounds, each on a fresh pair with its own scene. *)
let rounds = 32

(* (instance, class, size): the usual suspects of a 1990 desktop. *)
let classes =
  [|
    ("xterm", "XTerm", (484, 316));
    ("xclock", "XClock", (100, 100));
    ("xlogo", "XLogo", (64, 64));
    ("emacs", "Emacs", (600, 640));
    ("xmh", "Xmh", (420, 500));
    ("xbiff", "XBiff", (48, 48));
  |]

(* Resident clients at user-specified positions inside [area]. *)
let population rng ~count ~area:(aw, ah) =
  List.init count (fun i ->
      let instance, class_, (w, h) =
        classes.(Random.State.int rng (Array.length classes))
      in
      let x = Random.State.int rng (max 1 (aw - w)) in
      let y = Random.State.int rng (max 1 (ah - h)) in
      let instance = Printf.sprintf "%s%d" instance i in
      Client_app.spec ~instance ~class_ ~us_position:true
        ~background:(Char.chr (Char.code 'a' + (i mod 26)))
        ~command:(Printf.sprintf "%s -geometry %dx%d+%d+%d" instance w h x y)
        (Geom.rect x y w h))

(* -------- drag -------- *)

type gesture = {
  resize : bool;  (** grab a resize corner instead of the name button *)
  pick : int;  (** chooses among the unobscured candidates at press time *)
  moves : (int * int) array;  (** pointer deltas, one motion event each *)
}

type drag = { d_scenes : Client_app.spec list array; gestures : gesture array }

let drag_clients = 30
let drag_gestures = 2048

(* [resize_share] of the gestures resize a moved window.  The drag
   workload passes 0: see README.md, "Why drag has no resize gestures". *)
let drag ~resize_share seed =
  let rng = Random.State.make [| 0x64726167; seed |] in
  let d_scenes =
    Array.init rounds (fun _ ->
        population rng ~count:drag_clients ~area:(screen_w - 200, screen_h - 60))
  in
  let gestures =
    Array.init drag_gestures (fun _ ->
        let resize = Random.State.float rng 1.0 < resize_share in
        let pick = Random.State.int rng 1_000_000 in
        let n = 8 + Random.State.int rng 17 in
        (* A hand on a mouse: a heading held for the gesture, with jitter. *)
        let hx = Random.State.int rng 7 - 3 and hy = Random.State.int rng 7 - 3 in
        let moves =
          Array.init n (fun _ ->
              ( hx + Random.State.int rng 5 - 2,
                hy + Random.State.int rng 5 - 2 ))
        in
        { resize; pick; moves })
  in
  { d_scenes; gestures }

(* -------- pan -------- *)

type pan = { p_scenes : Client_app.spec list array; presses : (int * int) array }

let pan_clients = 200
let pan_presses = 4096

(* Panner-relative press positions; the panner is the desktop scaled by
   1/24 (the OpenLook+ template's [panner.scale]). *)
let pan seed =
  let rng = Random.State.make [| 0x70616e; seed |] in
  let p_scenes =
    Array.init rounds (fun _ ->
        population rng ~count:pan_clients ~area:(desktop_w, desktop_h))
  in
  let pw = desktop_w / 24 and ph = desktop_h / 24 in
  let presses =
    Array.init pan_presses (fun _ ->
        (Random.State.int rng pw, Random.State.int rng ph))
  in
  { p_scenes; presses }

(* -------- churn -------- *)

type cycle = {
  geom : Geom.rect;  (** the churned window's requested geometry *)
  titles : string array;  (** WM_NAME at map, then the retitles *)
}

type churn = { c_scenes : Client_app.spec list array; cycles : cycle array }

let churn_clients = 30
let churn_cycles = 1024
let retitles = 5

let churn seed =
  let rng = Random.State.make [| 0x6368726e; seed |] in
  let c_scenes =
    Array.init rounds (fun _ ->
        population rng ~count:churn_clients ~area:(screen_w - 200, screen_h - 60))
  in
  let cycles =
    Array.init churn_cycles (fun _ ->
        let w = 64 + Random.State.int rng 400 and h = 48 + Random.State.int rng 300 in
        let geom =
          Geom.rect
            (Random.State.int rng (screen_w - 200 - w))
            (Random.State.int rng (screen_h - 60 - h))
            w h
        in
        let titles =
          Array.init (retitles + 1) (fun _ ->
              Printf.sprintf "doc-%06d" (Random.State.int rng 1_000_000))
        in
        { geom; titles })
  in
  { c_scenes; cycles }

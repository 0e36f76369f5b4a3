(** Desktop scrollbars — the first of the paper's three panning methods
    ("scrollbars, a panner object, or window manager commands", §6).

    When the [scrollbars] resource is true, swm puts a horizontal bar along
    the bottom edge and a vertical bar along the right edge of the glass
    (override-redirect WM furniture, like twm's, not managed clients).  A
    thumb in each bar shows which slice of the Virtual Desktop is visible;
    button 1 in a bar pans so the viewport centres on the pressed spot. *)

val create : Ctx.t -> screen:int -> unit
(** Create the bars if the resource asks for them and the screen has a
    virtual desktop; registers them in the screen state. *)

val refresh : Ctx.t -> screen:int -> unit
(** Reposition and resize the thumbs after a pan or desktop resize; a
    thumb already in place costs no request. *)

val bar_thickness : int

val classify : Ctx.t -> screen:int -> Swm_xlib.Xid.t -> [ `Horizontal | `Vertical ] option
(** Is this window one of the screen's scrollbars (or its thumb)? *)

val press_target :
  Ctx.t ->
  screen:int ->
  [ `Horizontal | `Vertical ] ->
  bar_pos:Swm_xlib.Geom.point ->
  Swm_xlib.Geom.point option
(** Button 1: the viewport origin that centres the viewport on the pressed
    bar position along the bar's axis (the other axis stays); [None] if
    the screen has no such bar.  The WM pans there with {!Panner.pan_to}. *)

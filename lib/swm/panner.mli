(** The Virtual Desktop panner (paper §6.1, Figure 3).

    A miniature representation of the whole desktop: one tiny window per
    managed client plus an outline showing the current viewport.  Button 1
    inside the panner pans the desktop to the pressed position; button 2 on
    a miniature starts a move of the corresponding client — dropping it
    anywhere in the panner repositions the real window, and crossing out of
    (or into) the panner mid-move switches between miniature and full-size
    coordinates, both directions (the paper's two crossing cases).

    The panner itself is an ordinary client window: swm reparents it, so it
    can be moved, iconified and resized like anything else; it starts
    sticky (it must not scroll off with the desktop), and resizing it
    resizes the desktop. *)

val create : Ctx.t -> screen:int -> Swm_xlib.Xid.t option
(** Create the panner client window (WM_CLASS [panner.Panner]) if the
    [panner] resource asks for one and the screen has a virtual desktop.
    Returns the client window, to be managed by {!Wm} like any client. *)

val refresh : Ctx.t -> screen:int -> unit
(** Bring the scrollbar thumbs, the viewport outline and the miniatures up
    to date with the current state, in place.  The existing windows are
    compared with the desktop and only the differences cost requests: one
    ConfigureWindow for a moved outline, thumb or miniature, a create for
    each newly eligible client, a destroy for each client that left the
    current desktop, and restacking (fewest moves) only when the
    miniatures' order differs from the desktop's stacking order.  A
    refresh with nothing changed sends no request.  The outline stays at
    the bottom.  Being driven by state, not deltas, a refresh repairs
    whatever earlier refreshes skipped (degraded tiers skip it; see
    {!Governor}).  Every state change but a pan calls it: manage,
    unmanage, raise or lower, move, desktop switch, desktop resize, a
    retitle that resized the frame, and the governor's restore. *)

val pan_to : Ctx.t -> screen:int -> Swm_xlib.Geom.point -> unit
(** Pan the viewport's top-left corner to a desktop position (clamped;
    {!Vdesk.pan_to}), then move the scrollbar thumbs and the viewport
    outline after it.  Every pan goes through here: button 1 on the panner
    or a miniature, a scrollbar press, [f.pan] (through {!pan_by}) and
    [f.panto].  A pan moves only the desktop window, so frames keep their
    desktop coordinates and stacking and no miniature can change; none is
    looked at.  A pan's requests, time and allocation therefore do not
    depend on the number of windows.  A missing outline is created by a
    full {!refresh}.  Under a degraded tier the desktop still pans but the
    views are left for the governor's restore, as with {!refresh}. *)

val pan_by : Ctx.t -> screen:int -> dx:int -> dy:int -> unit
(** {!pan_to} the current offset moved by [(dx, dy)] ([f.pan]). *)

val remove_miniature : Ctx.t -> Ctx.client -> unit
(** Destroy the client's miniature, if it has one.  Unmanaging a client
    calls this in every tier, so a dead client never keeps a miniature. *)

val is_panner : Ctx.t -> Ctx.client -> bool

val client_of_miniature : Ctx.t -> Swm_xlib.Xid.t -> Ctx.client option

val desktop_pos_of_panner_pos :
  Ctx.t -> screen:int -> Swm_xlib.Geom.point -> Swm_xlib.Geom.point
(** Scale a panner-interior position up to desktop coordinates. *)

val pan_to_pointer : Ctx.t -> screen:int -> panner_pos:Swm_xlib.Geom.point -> unit
(** Button-1 action: centre the viewport on the pressed desktop position,
    with {!pan_to}. *)

val panner_resized : Ctx.t -> Ctx.client -> int * int -> unit
(** Resizing the panner resizes the underlying desktop (paper §6.1). *)

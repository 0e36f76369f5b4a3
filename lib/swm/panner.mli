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
    refresh with nothing changed sends no request, and a pan costs the
    same whatever the number of windows.  The outline stays at the bottom.
    Being driven by state, not deltas, a refresh repairs whatever earlier
    refreshes skipped (degraded tiers skip it; see {!Governor}). *)

val remove_miniature : Ctx.t -> Ctx.client -> unit
(** Destroy the client's miniature, if it has one.  Unmanaging a client
    calls this in every tier, so a dead client never keeps a miniature. *)

val is_panner : Ctx.t -> Ctx.client -> bool

val client_of_miniature : Ctx.t -> Swm_xlib.Xid.t -> Ctx.client option

val desktop_pos_of_panner_pos :
  Ctx.t -> screen:int -> Swm_xlib.Geom.point -> Swm_xlib.Geom.point
(** Scale a panner-interior position up to desktop coordinates. *)

val pan_to_pointer : Ctx.t -> screen:int -> panner_pos:Swm_xlib.Geom.point -> unit
(** Button-1 action: centre the viewport on the pressed desktop position. *)

val panner_resized : Ctx.t -> Ctx.client -> int * int -> unit
(** Resizing the panner resizes the underlying desktop (paper §6.1). *)

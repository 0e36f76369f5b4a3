(** Window decoration (paper §4.1.1).

    A decoration panel describes what a client looks like after it is
    reparented.  It is an ordinary panel definition containing a panel
    object called [client] (where the client window goes) and optionally a
    button/text object called [name] (which displays WM_NAME).  Which panel
    decorates which client comes from the (class/instance/shaped/sticky-
    specific) [decoration] resource; the value [none] (or a missing panel
    definition) leaves the client undecorated. *)

val decoration_name : Ctx.t -> Ctx.client -> string option
(** The resource value, [None] for "no decoration". *)

val build : Ctx.t -> Ctx.client -> at:Swm_xlib.Geom.point -> unit
(** Construct and realize the decoration for a client whose window currently
    sits on the root, reparent the client into the frame (adding it to the
    save-set), position the frame at [at] (coordinates in the effective
    parent — desktop or root), write SWM_ROOT, and attach resize corners if
    the panel asks for them.  Undecorated clients are reparented directly
    into the effective parent. *)

val teardown : Ctx.t -> Ctx.client -> to_root:bool -> unit
(** Destroy the decoration; when [to_root], first reparent the client back
    to the real root preserving its absolute position (unmanage / WM exit).
    Otherwise the client is left unparented inside the effective parent
    (redecoration). *)

val redecorate : Ctx.t -> Ctx.client -> unit
(** Re-query the decoration resource and rebuild the frame in place — used
    when the scope the decoration depends on changes (sticky, shaped). *)

val client_resized : Ctx.t -> Ctx.client -> int * int -> unit
(** Honour a client resize: grow the [client] panel, re-lay the frame out,
    resize the client window, and send the synthetic ConfigureNotify. *)

val set_frame_geometry : Ctx.t -> Ctx.client -> Swm_xlib.Geom.rect -> unit
(** Move/resize the frame (parent-relative) with one request, keeping the
    decoration's cached geometry in step.  Every frame move goes through
    here; moving [client.frame] directly would let the next relayout (a
    resize, a wider title) snap the frame back. *)

val move_frame : Ctx.t -> Ctx.client -> Swm_xlib.Geom.point -> unit
(** Move the frame (parent-relative coordinates) and tell the client via a
    synthetic ConfigureNotify. *)

val update_name : Ctx.t -> Ctx.client -> unit
(** Refresh the [name] object from WM_NAME after a PropertyNotify. *)

val frame_of_object : Ctx.t -> Swm_oi.Wobj.t -> Ctx.client option
(** The client whose decoration tree contains this object, if any. *)

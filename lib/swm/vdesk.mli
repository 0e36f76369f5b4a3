(** The Virtual Desktop (paper §6).

    The Virtual Desktop makes the root window effectively larger than the
    display: swm creates a large desktop window as a child of the real root
    and reparents managed frames into it; panning moves the desktop window
    to negative offsets.  Because the desktop is an ordinary X window,
    clients inside it get no ConfigureNotify when it pans — they have not
    moved with respect to *their* root (§6.3.1) — which is exactly the
    behaviour this module reproduces.

    Sticky windows (§6.2) stay children of the real root, above the desktop
    window, so they "appear stuck to the glass".

    Multiple desktops (mentioned as enabled-by-SWM_ROOT in §6.3.1; the
    paper's future-work aside) are supported as additional desktop windows
    of which one is mapped at a time. *)

val create : Ctx.t -> screen:int -> size:int * int -> ?desktops:int -> unit -> Ctx.vdesk
(** Create the desktop window(s) and record them on the screen state.
    Raises [Invalid_argument] if [size] is smaller than the screen or if
    [desktops < 1].  The X limit of 32767x32767 is enforced. *)

val effective_parent : Ctx.t -> screen:int -> sticky:bool -> Swm_xlib.Xid.t
(** Where a (frame) window should live: the current desktop window, or the
    real root for sticky windows / screens without a virtual desktop. *)

val effective_root : Ctx.t -> Ctx.client -> Swm_xlib.Xid.t
(** The root the client's SWM_ROOT property should name right now. *)

val offset : Ctx.t -> screen:int -> Swm_xlib.Geom.point
(** Current pan offset: desktop coordinates of the screen's top-left. *)

val viewport : Ctx.t -> screen:int -> Swm_xlib.Geom.rect
(** The visible portion of the desktop, in desktop coordinates. *)

val pan_to : Ctx.t -> screen:int -> Swm_xlib.Geom.point -> unit
(** Pan so the viewport's top-left is at the given desktop coordinate
    (clamped to the desktop bounds).  No-op without a virtual desktop. *)

val resize_desktop : Ctx.t -> screen:int -> int * int -> unit
(** Resizing the panner resizes the underlying desktop at run time (§6.1). *)

val switch_desktop : Ctx.t -> screen:int -> int -> unit
(** Map desktop [n] instead of the current one and update every affected
    client's SWM_ROOT.  Raises [Invalid_argument] for an out-of-range
    index. *)

val current_desktop : Ctx.t -> screen:int -> int
val desktop_count : Ctx.t -> screen:int -> int

val set_sticky : Ctx.t -> Ctx.client -> bool -> unit
(** Stick or unstick: reparent the frame between desktop and real root,
    preserving its on-glass position, and update SWM_ROOT (§6.2).  The
    caller re-queries decoration if it depends on stickiness. *)

val is_desktop_window : Ctx.t -> screen:int -> Swm_xlib.Xid.t -> bool

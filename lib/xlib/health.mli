(** Per-connection health scoring for slow-client quarantine.

    Each connection carries a {!t}.  On every server health tick
    ({!Server.health_tick}) the server feeds a {!sample} of the
    connection's cumulative pressure signals; {!observe} turns their
    deltas into a decayed score and steps a three-state machine with
    hysteresis:

    {v
    Healthy --score >= quarantine--> Throttled
    Throttled --score >= evict--> Evicted        (terminal)
    Throttled --calm_ticks quiet ticks--> Healthy
    v} *)

type state = Healthy | Throttled | Evicted

val state_name : state -> string
(** ["healthy"], ["throttled"] or ["evicted"]. *)

type thresholds = {
  quarantine_score : float;  (** enter [Throttled] at or above *)
  evict_score : float;  (** enter [Evicted] at or above *)
  calm_ticks : int;  (** consecutive quiet ticks to leave [Throttled] *)
  decay : float;  (** multiplicative score decay per tick *)
}

val default_thresholds : thresholds

type t
(** One connection's score and state. *)

val create : unit -> t
(** A [Healthy] connection with a zero score. *)

val state : t -> state
val score : t -> float

type sample = {
  depth_ratio : float;  (** pending / cap *)
  shed : int;  (** cumulative events shed from this connection's queue *)
  rejected : int;  (** cumulative rejected wire frames *)
  xerrors : int;  (** cumulative absorbed X errors *)
  stalls : int;  (** cumulative stall contributions *)
}

type transition = No_change | Became of state

val observe : thresholds -> t -> sample -> transition
(** Fold one tick's sample into the score and step the state machine. *)

(** Per-tenant latency SLO tracking on the simulated clock.

    The server feeds each traced request's end-to-end duration (global
    simulated milliseconds, submission → reply) into a per-tenant
    {!Window}; the tracker compares the window's moving p99 against a
    target and raises {e edge-triggered} breach events, mirroring
    {!Account}'s budget machinery — one event when the p99 first
    crosses the target (the burn starts), none while it stays above,
    and a fresh event only after the window has recovered below the
    target and burns again.  Unlike {!Account}'s latch (whose job is to
    let the dispatcher shed until an operator intervenes), an SLO
    breach re-arms on recovery: it is a reporting signal, not an
    admission input.

    Everything is keyed by the caller's clock stamps, so a
    deterministic workload yields deterministic breach sequences. *)

type t

type breach = {
  tenant : string;
  p99_ms : float;  (** the window's p99 at the crossing *)
  target_ms : float;
  at_ms : float;  (** clock stamp of the observation that crossed *)
}

type stat = {
  tenant : string;
  count : int;  (** observations inside the window *)
  p50_ms : float option;
  p95_ms : float option;
  p99_ms : float option;
  target_ms : float option;
  breached : bool;  (** currently burning (p99 above target) *)
  breaches : int;  (** total edge-triggered breach events so far *)
}

(** [create ?bucket_ms ?buckets ?target_p99_ms ()] — the window spans
    [bucket_ms * buckets] simulated milliseconds (default 1000 × 60,
    matching {!Mon.attach}); [target_p99_ms] applies to every tenant
    unless {!set_target} overrides it.  Thread-safe. *)
val create : ?bucket_ms:float -> ?buckets:int -> ?target_p99_ms:float -> unit -> t

(** Override (or clear) one tenant's target. *)
val set_target : t -> tenant:string -> p99_ms:float option -> unit

(** Record one request latency; [Some breach] exactly when this
    observation pushed the tenant's moving p99 over its target from
    below. *)
val observe : t -> tenant:string -> at_ms:float -> dur_ms:float -> breach option

(** Per-tenant snapshot at [at_ms], sorted by tenant name. *)
val snapshot : t -> at_ms:float -> stat list


(** Per-tenant request latency windows on the simulated clock.

    The server feeds each traced request's end-to-end duration
    (simulated milliseconds on the request's clock, its own I/O
    included, submission → reply) into a per-tenant one-minute
    {!Window} with latency histograms, and {!snapshot} reads each
    tenant's moving p50/p95/p99.

    Everything is keyed by the caller's clock stamps, so a
    deterministic workload yields deterministic snapshots. *)

type t

type stat = {
  tenant : string;
  count : int;  (** observations inside the window *)
  p50_ms : float option;
  p95_ms : float option;
  p99_ms : float option;
}

(** Thread-safe. *)
val create : unit -> t

(** Record one request latency. *)
val observe : t -> tenant:string -> at_ms:float -> dur_ms:float -> unit

(** Per-tenant snapshot at [at_ms], sorted by tenant name. *)
val snapshot : t -> at_ms:float -> stat list

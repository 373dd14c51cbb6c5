(** Per-document resource accounting.

    Each document's account accumulates, over the operations recorded
    against it (see {!charge}), physical page reads, simulated
    milliseconds and the peak number of pages pinned.  Cumulative totals
    live for the account's lifetime; windowed totals ride the same
    one-minute windows as {!Registry}.

    Not thread-safe; {!Mon} serialises. *)

type t

val create : unit -> t

(** [charge t ~doc ~at_ms ~reads ~sim_ms ~pinned] accumulates one
    completed operation: its page reads, its simulated time, and the
    pages pinned when it completed. *)
val charge : t -> doc:string -> at_ms:float -> reads:int -> sim_ms:float -> pinned:int -> unit

type doc_stats = {
  doc : string;
  reads_total : int;
  sim_ms_total : float;
  pinned_peak : int;  (** highest pages-pinned any single op reached *)
  win_reads : Window.agg;
  win_sim_ms : Window.agg;
}

(** All accounts, sorted by document name. *)
val snapshot : t -> at_ms:float -> doc_stats list

val to_json : doc_stats list -> Natix_obs.Json.t

(** Per-document resource accounting.

    Each document's account accumulates physical page reads (fed
    per-event, see {!charge_reads}), simulated milliseconds and the peak
    number of pages pinned (fed per completed operation, see
    {!charge_op}).  Cumulative totals live for the account's lifetime;
    windowed totals ride the same one-minute windows as {!Registry}.

    Not thread-safe; {!Mon} serialises. *)

type t

val create : unit -> t

(** [charge_reads t ~doc ~at_ms n] accumulates [n] physical page reads —
    fed from [Io] events, whose (doc, phase) context attributes them even
    inside parallel batches. *)
val charge_reads : t -> doc:string -> at_ms:float -> int -> unit

(** [charge_op t ~doc ~at_ms ~sim_ms ~pinned] accumulates one completed
    operation's simulated time and peak pages-pinned (per-op figures only
    exist for operations recorded individually). *)
val charge_op : t -> doc:string -> at_ms:float -> sim_ms:float -> pinned:int -> unit

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

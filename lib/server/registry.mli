(** The tenant → store registry: many stores mounted in one process.

    A tenant is one {!Natix.Session} (one store file) plus the serving
    state the dispatcher needs around it: the {!Rw_lock} gate, the
    stats-merge lock, and the crash flag.  Tenants arrive two ways:

    - {!mount} hands the registry an already-open session (tests,
      in-memory tenants).  The registry does {e not} close these.
    - {!find} on an unknown name lazily opens [<root>/<name>.natix]
      when the registry was created with a [root] directory — the
      serve-from-a-directory deployment.  The file must already exist:
      a client-supplied name never materialises a fresh store.  Lazily
      opened tenants are owned: {!close_all} checkpoints and closes
      them.

    The table itself is guarded at {!Natix_store.Lock_rank.registry},
    the lowest rank: a lazy open runs under it and takes every engine
    lock above. *)

type tenant = {
  name : string;
  session : Natix.Session.t;
  gate : Rw_lock.t;
  stats_mu : Mutex.t;
      (** serialises merging per-request I/O streams into the tenant
          disk's default accumulator; a leaf lock — nothing else is ever
          taken while holding it *)
  owned : bool;  (** opened lazily by the registry, closed by {!close_all} *)
  mutable crashed : bool;
      (** a request hit {!Natix_store.Faulty_disk.Crash}: the store's
          disk refuses further writes, so the dispatcher answers with a
          typed error instead of touching it *)
}

type t

(** [create ?root ?options ()] — [root] enables lazy opening of
    [<root>/<name>.natix]; [options] configures those opens (default
    {!Natix.Session.Options.default}). *)
val create : ?root:string -> ?options:Natix.Session.Options.t -> unit -> t

(** [mount t name session] registers an externally-owned session.
    @raise Invalid_argument when [name] is already registered. *)
val mount : t -> string -> Natix.Session.t -> unit

(** Look a tenant up, lazily opening its store when a [root] is
    configured.  Unknown tenant (no mounted session and no existing
    [<root>/<name>.natix]) and invalid names (path separators and
    dot-prefixes are rejected, tenant names are not paths) are typed
    [Error]s; so is a lazy open that fails with a typed error.
    Non-typed open failures (corrupt store file) propagate. *)
val find : t -> string -> (tenant, Natix_core.Error.t) result

(** Registered tenant names, sorted. *)
val names : t -> string list

(** Checkpoint and close every {e owned} tenant (mounted sessions stay
    open — their owner closes them) and empty the table. *)
val close_all : t -> unit

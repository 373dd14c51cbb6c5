module Lock_rank = Natix_store.Lock_rank
module Error = Natix_core.Error

type tenant = {
  name : string;
  session : Natix.Session.t;
  gate : Rw_lock.t;
  stats_mu : Mutex.t;
  owned : bool;
  mutable crashed : bool;
}

type t = {
  root : string option;
  options : Natix.Session.Options.t;
  mu : Mutex.t;  (* rank registry *)
  table : (string, tenant) Hashtbl.t;
}

let create ?root ?(options = Natix.Session.Options.default) () =
  { root; options; mu = Mutex.create (); table = Hashtbl.create 8 }

let locked t f =
  Lock_rank.acquire Lock_rank.registry;
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.mu;
      Lock_rank.release Lock_rank.registry)
    f

let make ~name ~owned session =
  { name; session; gate = Rw_lock.create (); stats_mu = Mutex.create (); owned; crashed = false }

let mount t name session =
  locked t (fun () ->
      if Hashtbl.mem t.table name then
        invalid_arg (Printf.sprintf "Registry.mount: tenant %S already registered" name);
      Hashtbl.replace t.table name (make ~name ~owned:false session))

(* Tenant names are identifiers, not paths: anything that could escape
   the root directory (separators, leading dots, NULs) is refused with a
   typed error before it reaches the filesystem. *)
let valid_name name =
  name <> ""
  && name.[0] <> '.'
  && String.for_all (fun c -> c <> '/' && c <> '\\' && c <> '\x00') name

let find t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some tenant -> Ok tenant
      | None ->
        if not (valid_name name) then
          Error (Error.Storage (Printf.sprintf "invalid tenant name %S" name))
        else (
          match t.root with
          | None -> Error (Error.Storage (Printf.sprintf "unknown tenant %S" name))
          | Some root -> (
            let path = Filename.concat root (name ^ ".natix") in
            (* [Session.open_store] creates missing files; a server must
               not let an arbitrary client-supplied name materialise a
               fresh store, so lazy opens require the file to exist. *)
            if not (Sys.file_exists path) then
              Error (Error.Storage (Printf.sprintf "unknown tenant %S" name))
            else
              match Natix.Session.open_store ~options:t.options path with
            | session ->
              let tenant = make ~name ~owned:true session in
              Hashtbl.replace t.table name tenant;
              Ok tenant
            | exception Error.Error e -> Error e)))

let names t =
  locked t (fun () -> List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.table []))

let close_all t =
  locked t (fun () ->
      Hashtbl.iter (fun _ tenant -> if tenant.owned then Natix.Session.close tenant.session)
        t.table;
      Hashtbl.reset t.table)

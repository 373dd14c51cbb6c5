open Natix_util

type behaviour = Standalone | Cluster | Other

type t = {
  default : behaviour;
  entries : (Label.t * Label.t, behaviour) Hashtbl.t;
}

let create ?(default = Other) () =
  { default; entries = Hashtbl.create 16 }

let set t ~parent ~child b = Hashtbl.replace t.entries (parent, child) b

let get t ~parent ~child =
  match Hashtbl.find_opt t.entries (parent, child) with
  | Some b -> b
  | None -> t.default

let one_to_one () = create ~default:Standalone ()
let native () = create ~default:Other ()

let behaviour_to_string = function
  | Standalone -> "standalone"
  | Cluster -> "cluster"
  | Other -> "other"

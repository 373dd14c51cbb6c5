type t = {
  page_size : int;
  buffer_bytes : int;
  split_target : float;
  split_tolerance : float;
  matrix : Split_matrix.t;
  merge_threshold : float;
  standalone_first_fit : bool;
  commit_delay : float;
  read_ahead : int;
  scan_resistant : bool;
  arena_batch : int;  (* pages a private document arena grabs per refill *)
  obs : Natix_obs.Obs.t option;
}

let default () =
  {
    page_size = 8192;
    buffer_bytes = 2 * 1024 * 1024;
    split_target = 0.5;
    split_tolerance = 0.1;
    matrix = Split_matrix.native ();
    merge_threshold = 0.5;
    standalone_first_fit = false;
    commit_delay = 0.;
    read_ahead = 0;
    scan_resistant = false;
    arena_batch = 8;
    obs = None;
  }

let with_page_size page_size t = { t with page_size }
let with_obs obs t = { t with obs = Some obs }

(* The integrity trailer comes off every page before the slotted layout
   carves it up. *)
let max_record_size t =
  Natix_store.Slotted_page.max_record_len
    ~page_size:(t.page_size - Natix_store.Disk.trailer_size)

let validate t =
  if t.page_size < 512 || t.page_size > 32768 then
    invalid_arg "Config: page_size must be within [512, 32768]";
  if t.buffer_bytes < 2 * t.page_size then
    invalid_arg "Config: buffer must hold at least two pages";
  if t.split_target <= 0. || t.split_target >= 1. then
    invalid_arg "Config: split_target must be in (0, 1)";
  if t.split_tolerance < 0. || t.split_tolerance > 0.5 then
    invalid_arg "Config: split_tolerance must be in [0, 0.5]";
  if t.merge_threshold < 0. || t.merge_threshold > 1. then
    invalid_arg "Config: merge_threshold must be in [0, 1]";
  if t.commit_delay < 0. || t.commit_delay > 10_000. then
    invalid_arg "Config: commit_delay must be in [0, 10000] ms";
  if t.read_ahead < 0 || t.read_ahead > 1024 then
    invalid_arg "Config: read_ahead must be in [0, 1024]";
  if t.arena_batch < 1 || t.arena_batch > 1024 then
    invalid_arg "Config: arena_batch must be in [1, 1024]"

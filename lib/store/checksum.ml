(* CRC-32 (IEEE 802.3 polynomial, reflected), sliced by eight.  Table k
   (entries [k * 256 .. k * 256 + 255]) maps a byte to its CRC contribution
   followed by k zero bytes, so one step folds 8 input bytes with 8
   lookups; the tail under 8 bytes goes through table 0 a byte at a time.
   The tables take 16 KB and are built when the module is initialised. *)

let polynomial = 0xedb88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let[@inline] table k n = Array.unsafe_get tables ((k lsl 8) lor n)
let[@inline] byte buf i = Char.code (Bytes.unsafe_get buf i)

let crc32 ?(init = 0) buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.crc32: range out of bounds";
  let stop = off + len in
  let crc = ref (init lxor 0xffffffff) in
  let i = ref off in
  while !i + 8 <= stop do
    let c = !crc and p = !i in
    crc :=
      table 7 ((c lxor byte buf p) land 0xff)
      lxor table 6 (((c lsr 8) lxor byte buf (p + 1)) land 0xff)
      lxor table 5 (((c lsr 16) lxor byte buf (p + 2)) land 0xff)
      lxor table 4 (((c lsr 24) lxor byte buf (p + 3)) land 0xff)
      lxor table 3 (byte buf (p + 4))
      lxor table 2 (byte buf (p + 5))
      lxor table 1 (byte buf (p + 6))
      lxor table 0 (byte buf (p + 7));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    crc := table 0 ((!crc lxor byte buf p) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let crc32_string ?init s =
  crc32 ?init (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

type t = {
  names : string list;
  profile : Xinv_speccross.Profiler.t option;
  policy : Policy.tuned option;
}

let empty ~names = { names; profile = None; policy = None }

let magic = "xinvcache\n"

(* v2: the bundle gained the tuned execution policy.
   v3: the DOMORE plan, PDG edges and SCC order left the bundle. *)
let schema_version = 3

(* The payload is a Marshal image of the closure-free record above.  Marshal
   output is only guaranteed readable by a compatible runtime, which is
   exactly what the version+checksum envelope enforces: the digest is
   validated before a single payload byte reaches [Marshal.from_string], so
   corrupt data can never segfault the deserializer, and incompatible
   writers are expected to bump [schema_version]. *)

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode t =
  let payload = Marshal.to_string (t : t) [] in
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  put_u32 b schema_version;
  put_u32 b (String.length payload);
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let header_len = String.length magic + 4 + 4 + 16

let decode s =
  let len = String.length s in
  if len < header_len then Error "truncated"
  else if String.sub s 0 (String.length magic) <> magic then Error "magic"
  else
    let version = get_u32 s (String.length magic) in
    if version <> schema_version then Error "version"
    else
      let plen = get_u32 s (String.length magic + 4) in
      if plen < 0 || len <> header_len + plen then Error "truncated"
      else
        let digest = String.sub s (String.length magic + 8) 16 in
        let payload = String.sub s header_len plen in
        if not (String.equal (Digest.string payload) digest) then
          Error "checksum"
        else
          match (Marshal.from_string payload 0 : t) with
          | t -> Ok t
          | exception _ -> Error "payload"

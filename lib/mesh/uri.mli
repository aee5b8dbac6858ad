(** Service URIs, hiillos-style: services are addressed by scheme
    ([kv://], [fs:///etc/hosts], [blk://], [http://host/x]) and the name
    service routes on the scheme alone — the path is payload for the
    service behind it. *)

type t = {
  scheme : string;  (** the name-service routing key, e.g. ["fs"] *)
  path : string;  (** everything after ["://"], possibly empty *)
}

exception Bad_uri of string

val service : string -> string
(** [service uri] is [(parse uri).scheme] — the name-service key. *)

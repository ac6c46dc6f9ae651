(** Content-addressed on-disk result cache.

    Entries are keyed by the hash of a {e canonical payload string}
    (the compact canonical JSON of a {!Request} — see
    {!Request.canonical}) salted with a code-version string, so a warm
    rerun of any experiment grid serves repeated cells from disk
    instead of re-simulating them.

    Layout: [dir/<k₀k₁>/<key>.json] where [key] is the 32-hex-char
    MD5 of ["<salt>\n<canonical payload>"] and [k₀k₁] its first two
    characters (a fan-out subdirectory, keeping directories small on
    big sweeps). Each file is a self-describing envelope:

    {v
    { "salt": "...", "key": "...", "request": <canonical JSON>,
      "payload": <result JSON> }
    v}

    {b Versioning.} [salt] embeds {!version}. Any change to simulator
    behaviour, to the canonical request encoding, or to the payload
    schema MUST bump {!version}: old entries then fail the salt check
    and are treated as misses (and deleted lazily). As a backstop for
    a forgotten bump, [Request.clear_disk]/[disesim cache clear]
    wipe the directory outright.

    {b Durability.} Writes go to a temp file in the same directory
    and are published with [rename], so readers (including concurrent
    domains and processes) never observe a half-written entry. A
    corrupt or truncated entry — unparseable JSON, wrong salt, wrong
    key, missing payload — is detected on read, retired, and reported
    as a miss; the caller recomputes and rewrites. Lookups never
    raise; only {!store} and {!clear} surface I/O errors, as
    {!Dise_isa.Diag.Cache}.

    {b Concurrent recovery.} Retiring a corrupt entry never unlinks
    the published path directly: a racing {!store} may have just
    renamed a fresh, valid entry into place, and a blind delete would
    destroy it. Recovery instead {e claims} the file by renaming it to
    a private name (atomically — exactly one domain wins; losers see a
    plain miss), re-validates what was actually claimed, and returns
    the payload if a racing store had already repaired the entry.
    Recovery is idempotent: any number of domains may hit the same
    corrupt entry concurrently and each either reports a miss or a
    valid payload, never an error, and the corrupt bytes are removed
    exactly once. *)

type t

val version : string
(** The code-version component of the salt. Bump on any change that
    invalidates persisted results. *)

val salt : string
(** The full salt string hashed into every key and embedded in every
    envelope. *)

val create : dir:string -> t
(** Open (creating directories as needed) a cache rooted at [dir].
    Raises [Diag_error (Cache _)] via {!Dise_isa.Diag} if the root
    cannot be created. *)

exception Diag_error of Dise_isa.Diag.t
(** Raised by {!create}, {!store} and {!clear} on I/O failure
    (category ["cache"], exit code 4). *)

val dir : t -> string

val key : string -> string
(** [key canonical] is the 32-hex-char entry key for a canonical
    payload string (MD5 of salt + payload). Deterministic across
    processes and versions-with-equal-salt; the golden test pins it. *)

val path : t -> key:string -> string
(** Absolute path of the entry file for [key] (whether or not it
    exists). *)

val find : t -> key:string -> Dise_telemetry.Json.t option
(** The entry's [payload] member, or [None] on miss. Corrupt entries
    are retired (see {e Concurrent recovery} above) and reported as
    misses; never raises. *)

val invalidate : t -> key:string -> unit
(** Retire the entry for [key] (if any) using the same claim-by-rename
    protocol as corrupt-entry recovery, so it cannot delete an entry a
    racing {!store} just published over the one being invalidated.
    For callers that detect a defect in a payload {!find} returned
    (e.g. a schema mismatch one level up). Never raises. *)

val store :
  t -> key:string -> request:Dise_telemetry.Json.t ->
  payload:Dise_telemetry.Json.t -> unit
(** Atomically persist an entry (idempotent; last writer wins with an
    identical value by construction). *)

val entries : t -> int
(** Number of entries currently on disk. *)

val clear : t -> int
(** Delete every entry (and stray temp file); returns the number of
    entry files removed. The directory structure is kept. *)

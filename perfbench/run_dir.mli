(** Scratch space and process facts of one benchmark run. *)

val with_dir : (string -> 'a) -> 'a
(** [with_dir f] runs [f dir] with a fresh directory
    [.perfbench-run/<pid>] under the working directory and removes it,
    with everything in it, afterwards (also on exceptions). *)

val remove : string -> unit
(** Remove a file or a directory tree; missing paths are ignored. *)

val peak_rss_mb : unit -> float
(** Peak resident set size ([VmHWM]) of this process in MiB; [0.0] where
    [/proc/self/status] is unreadable. *)

(** Unix error codes used by the simulated kernel. [EKEYREJECTED] is the
    code IK-B surfaces when an authorization token fails to verify. *)

type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EIO
  | EBADF
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | EMFILE
  | ENOSPC
  | ESPIPE
  | EPIPE
  | ERANGE
  | ENOSYS
  | ENOTEMPTY
  | ELOOP
  | ENOTSOCK
  | EDESTADDRREQ
  | EMSGSIZE
  | EPROTONOSUPPORT
  | EOPNOTSUPP
  | EADDRINUSE
  | EADDRNOTAVAIL
  | ENETUNREACH
  | ECONNABORTED
  | ECONNRESET
  | ENOBUFS
  | EISCONN
  | ENOTCONN
  | ETIMEDOUT
  | ECONNREFUSED
  | EALREADY
  | EINPROGRESS
  | ECHILD
  | EDEADLK
  | ENAMETOOLONG
  | EIDRM
  | ETIME
  | EREMOTEIO
  | EKEYREJECTED (* used by IK-B when an authorization token fails to verify *)

val table : (t * string) array
(** Every errno with its name, in declaration order. The position is
    {!index}, the wire tag in recordings, so new errnos go at the end. *)

val index : t -> int
val of_index : int -> t option
(** Inverse of {!index}; [None] outside the table. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

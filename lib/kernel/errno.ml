(* Unix error codes used by the simulated kernel. *)

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

(* Every errno with its name, in declaration order: the position is
   [index], which is also the errno's wire tag, so the table is
   append-only. *)
let table =
  [|
    (EPERM, "EPERM"); (ENOENT, "ENOENT"); (ESRCH, "ESRCH"); (EINTR, "EINTR");
    (EIO, "EIO"); (EBADF, "EBADF"); (EAGAIN, "EAGAIN"); (ENOMEM, "ENOMEM");
    (EACCES, "EACCES"); (EFAULT, "EFAULT"); (EBUSY, "EBUSY");
    (EEXIST, "EEXIST"); (ENOTDIR, "ENOTDIR"); (EISDIR, "EISDIR");
    (EINVAL, "EINVAL"); (ENFILE, "ENFILE"); (EMFILE, "EMFILE");
    (ENOSPC, "ENOSPC"); (ESPIPE, "ESPIPE"); (EPIPE, "EPIPE");
    (ERANGE, "ERANGE"); (ENOSYS, "ENOSYS"); (ENOTEMPTY, "ENOTEMPTY");
    (ELOOP, "ELOOP"); (ENOTSOCK, "ENOTSOCK"); (EDESTADDRREQ, "EDESTADDRREQ");
    (EMSGSIZE, "EMSGSIZE"); (EPROTONOSUPPORT, "EPROTONOSUPPORT");
    (EOPNOTSUPP, "EOPNOTSUPP"); (EADDRINUSE, "EADDRINUSE");
    (EADDRNOTAVAIL, "EADDRNOTAVAIL"); (ENETUNREACH, "ENETUNREACH");
    (ECONNABORTED, "ECONNABORTED"); (ECONNRESET, "ECONNRESET");
    (ENOBUFS, "ENOBUFS"); (EISCONN, "EISCONN"); (ENOTCONN, "ENOTCONN");
    (ETIMEDOUT, "ETIMEDOUT"); (ECONNREFUSED, "ECONNREFUSED");
    (EALREADY, "EALREADY"); (EINPROGRESS, "EINPROGRESS"); (ECHILD, "ECHILD");
    (EDEADLK, "EDEADLK"); (ENAMETOOLONG, "ENAMETOOLONG"); (EIDRM, "EIDRM");
    (ETIME, "ETIME"); (EREMOTEIO, "EREMOTEIO"); (EKEYREJECTED, "EKEYREJECTED");
  |]

external index : t -> int = "%identity"

let () =
  Array.iteri
    (fun i (e, name) ->
      if index e <> i then invalid_arg ("Errno.table: misplaced " ^ name))
    table

let of_index i =
  if i < 0 || i >= Array.length table then None else Some (fst table.(i))

let to_string e = snd table.(index e)
let pp fmt e = Format.pp_print_string fmt (to_string e)

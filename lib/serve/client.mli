(** Client side of the [cla serve] protocol: one-shot round trips and a
    retrying wrapper with exponential backoff and equal jitter.

    Retries cover the transient outcomes only — connection failures
    that clear up ([ECONNREFUSED]/[ENOENT] while the server is starting,
    restarting after a crash, or draining; [ECONNRESET]/[EAGAIN]/[EINTR]),
    torn connections, and ["shed"]/["bye"] responses; other connect
    errnos ([EACCES], ...) fail fast.
    ["timeout"] and ["error"] are final: retrying a timed-out query
    would just burn another deadline, and a malformed query never
    becomes well-formed. *)

type attempt_error =
  | Connect_failed of Unix.error * string
      (** the errno plus its rendered message — kept separate so the
          retry loop can classify without string matching *)
  | Io_failed of string

val describe : attempt_error -> string

(** Connect, send one request line, read one response line, close. *)
val round_trip : socket:string -> string -> (string, attempt_error) result

type retry_policy = {
  attempts : int;  (** total tries, including the first *)
  base_delay_ms : int;  (** backoff starts here and doubles *)
  max_delay_ms : int;  (** backoff cap *)
  seed : int;  (** jitter stream seed (deterministic, no wall clock) *)
}

(** 5 attempts, 25ms base, 1s cap, seed 1. *)
val default_policy : retry_policy

type outcome = {
  reply : (string, attempt_error) result;  (** last attempt's result *)
  tries : int;
  retried_sheds : int;
  retried_connects : int;
}

(** {!round_trip} with retries under [policy], sleeping an
    equal-jittered exponential backoff between attempts (a ["shed"]
    response's [retry_after_ms] raises the floor of the next sleep). *)
val with_retry : ?policy:retry_policy -> socket:string -> string -> outcome

(** Application-level workloads.

    The paper motivates eager writing with "recoverable virtual memory,
    persistent object stores, and database applications" and cites the
    TPC-B/TPC-C specifications; these drivers model that class of user:

    - {!tpcb}: account-table page updates plus a history append, each
      transaction durable before commit (synchronous);
    - {!postmark}: the classic small-file churn of a mail/news spool —
      create, deliver (read), append, expire (delete). *)

type txn_result = {
  transactions : int;
  mean_ms : float;
  p90_ms : float;
  max_ms : float;
}

val tpcb :
  ?transactions:int ->
  ?accounts_mb:float ->
  ?pages_per_txn:int ->
  Rig.stack ->
  txn_result
(** Defaults: 300 transactions, a 10 MB account table, 3 page updates
    plus one history append per transaction.  Every transaction ends
    with a sync (commit). *)

type churn_result = {
  operations : int;
  total_ms : float;
  ops_per_sec : float;  (** of simulated time *)
}

val postmark : ?operations:int -> ?max_live:int -> Rig.stack -> churn_result
(** Defaults: 2000 operations, at most 300 live files.  Mix: ~40 %
    deliveries (create+write, 1-8 KB), ~25 % reads, ~15 % appends,
    ~20 % expiries; a sync every 50 operations. *)

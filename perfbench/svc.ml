(* The deployment every workload runs: the dex lane over the oracle UC. *)
include Dex_service.Server.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))

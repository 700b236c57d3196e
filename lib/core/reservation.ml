module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request

type kind = Guaranteed | Random_failure_buffer of Hw.category

type t = {
  id : int;
  name : string;
  kind : kind;
  capacity_rru : float;
  rru_of : Hw.t -> float;
  msb_spread_limit : float;
  rack_spread_limit : float option;
  dc_affinity : (int * float) list;
  affinity_tolerance : float;
  embedded_buffer : bool;
  hard_msb_cap : float option;
  io_intensity : float;
}

let of_request (req : Capacity_request.t) =
  {
    id = req.Capacity_request.id;
    name = req.Capacity_request.service.Service.name;
    kind = Guaranteed;
    capacity_rru = req.Capacity_request.rru;
    rru_of = Service.rru_of req.Capacity_request.service;
    msb_spread_limit = req.Capacity_request.msb_spread_limit;
    rack_spread_limit = req.Capacity_request.rack_spread_limit;
    dc_affinity = req.Capacity_request.dc_affinity;
    affinity_tolerance = req.Capacity_request.affinity_tolerance;
    embedded_buffer = req.Capacity_request.embedded_buffer;
    hard_msb_cap = req.Capacity_request.hard_msb_cap;
    io_intensity = req.Capacity_request.io_intensity;
  }

let category_name = function
  | Hw.Compute -> "compute"
  | Hw.Storage -> "storage"
  | Hw.Memory -> "memory"
  | Hw.Flash -> "flash"
  | Hw.Gpu -> "gpu"
  | Hw.Asic -> "asic"
  | Hw.Compute_dense -> "compute-dense"

let shared_buffer ~id ~category ~capacity_rru =
  {
    id;
    name = Printf.sprintf "shared-buffer-%s" (category_name category);
    kind = Random_failure_buffer category;
    capacity_rru;
    rru_of = (fun hw -> if hw.Hw.category = category then hw.Hw.base_rru else 0.0);
    msb_spread_limit = 0.15;
    rack_spread_limit = None;
    dc_affinity = [];
    affinity_tolerance = 0.1;
    embedded_buffer = false;
    hard_msb_cap = None;
    io_intensity = 0.0;
  }

let is_buffer t = match t.kind with Random_failure_buffer _ -> true | Guaranteed -> false

let owner t =
  match t.kind with
  | Guaranteed -> Ras_broker.Broker.Reservation t.id
  | Random_failure_buffer _ -> Ras_broker.Broker.Shared_buffer

let accepts t hw = t.rru_of hw > 0.0

let pp ppf t =
  Format.fprintf ppf "reservation#%d %s C=%.1f spread<=%.2f buffer=%b" t.id t.name
    t.capacity_rru t.msb_spread_limit t.embedded_buffer

module Broker = Ras_broker.Broker

type grant = Reactive.grant = {
  requested_rru : float;
  granted_rru : float;
  servers : int list;
  took_from_buffer : int;
  visited : int;
}

let grant ~reactive broker ~reservation ~rru ~allow_buffer =
  if Reactive.broker reactive != broker then
    invalid_arg "Emergency.grant: reactive index is bound to a different broker";
  Reactive.grant reactive ~reservation ~rru ~allow_buffer

(* Root module of the domain-safety analyzer: pure re-exports. *)

module Ir = Ir
module Front_typed = Front_typed
module Callgraph = Callgraph
module Effects = Effects
module Dom_rules = Dom_rules
module Inventory = Inventory
module Driver = Driver

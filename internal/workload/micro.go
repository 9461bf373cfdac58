package workload

// OOOIPC returns the sustained compute IPC a 4-issue out-of-order core
// achieves on each workload's instruction mix (§4: wide issue and OOO
// buy ~1.45x on OLTP — low ILP, data-dependent — and nearly 2x on DSS's
// tight loops). Used to set cpu.Model.IPC for the OOO configuration.
func OOOIPC(name string) float64 {
	switch name {
	case "oltp", "tpcc":
		return 1.60
	case "dss":
		return 1.90
	default:
		return 1.50
	}
}

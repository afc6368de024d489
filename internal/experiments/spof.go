package experiments

import (
	"fmt"
	"io"

	"repro/internal/bccc"
	"repro/internal/bcube"
	"repro/internal/core"
	"repro/internal/dcell"
	"repro/internal/fattree"
	"repro/internal/topology"
)

// F22SinglePointsOfFailure counts articulation points — devices whose loss
// disconnects some still-alive pair — in each structure, split by device
// kind. Server-centric structures with multi-homed servers should have
// none; the fat-tree's single-homed servers make every edge switch a single
// point of failure for its rack.
func F22SinglePointsOfFailure(w io.Writer) error {
	builds := []struct {
		name string
		t    topology.Topology
	}{
		{"ABCCC(4,1,2)", core.MustBuild(core.Config{N: 4, K: 1, P: 2})},
		{"ABCCC(4,1,3)", core.MustBuild(core.Config{N: 4, K: 1, P: 3})},
		{"ABCCC(4,2,3)", core.MustBuild(core.Config{N: 4, K: 2, P: 3})},
		{"BCCC(4,2)", bccc.MustBuild(bccc.Config{N: 4, K: 2})},
		{"BCube(4,1)", bcube.MustBuild(bcube.Config{N: 4, K: 1})},
		{"DCell(4,1)", dcell.MustBuild(dcell.Config{N: 4, K: 1})},
		{"FatTree(4)", fattree.MustBuild(fattree.Config{K: 4})},
	}
	tw := table(w)
	fmt.Fprintln(tw, "structure\tservers\tswitches\tAP servers\tAP switches\thosts behind an AP\tbridge cables")
	for _, b := range builds {
		net := b.t.Network()
		g := net.Graph()
		// Only cuts that separate *server* pairs matter for the SPOF story
		// (removing an r=1 server merely orphans its stub local switch), so
		// servers weigh 1 and switches 0: a node or cable counts when its
		// loss disconnects some server pair.
		weight := make([]int64, g.NumNodes())
		for _, s := range net.Servers() {
			weight[s] = 1
		}
		nodeImpact, edgeImpact := g.CutImpact(nil, weight)
		apServers, apSwitches := 0, 0
		exposed := 0
		for v, impact := range nodeImpact {
			if impact <= 0 {
				continue
			}
			if net.IsServer(v) {
				apServers++
				continue
			}
			apSwitches++
			// Hosts severed if this switch dies: its single-homed neighbors.
			for _, nb := range g.Neighbors(v, nil) {
				if net.IsServer(nb) && g.Degree(nb) == 1 {
					exposed++
				}
			}
		}
		// Bridge cables whose loss severs a server pair (single-homed host
		// uplinks in the fat-tree; none in the server-centric structures —
		// an r = 1 ABCCC's stub local-switch cables are bridges of the
		// graph but sever no server pair).
		bridges := 0
		for _, impact := range edgeImpact {
			if impact > 0 {
				bridges++
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			b.name, net.NumServers(), net.NumSwitches(), apServers, apSwitches, exposed, bridges)
	}
	return tw.Flush()
}

// Package noc simulates Piranha's system interconnect (paper §2.6): the
// output queue (OQ), the topology-independent adaptive virtual cut-through
// router (RT, derived from the S3.mp S-Connect), and the input queue (IQ).
//
// Each processing node has four point-to-point channels (I/O nodes have
// two); packets are either Short (128 bits, 2 interconnect cycles on a
// channel) or Long (128-bit header + 64-byte data, 10 cycles). Four
// priority levels are supported end to end; the OQ never lets low
// priority block high priority, while the IQ additionally lets low
// priority *bypass* blocked high-priority traffic when it can proceed.
//
// Routing is "hot potato": a packet that cannot get its preferred output
// port is deflected out of any free port with its age incremented, and
// age raises effective priority, so a packet can theoretically reach an
// empty buffer anywhere in the network — which is why buffering needs
// grow linearly rather than quadratically with node count.
package noc

import "fmt"

// Topology describes which nodes connect to which.
type Topology interface {
	Nodes() int
	// Neighbors returns the nodes reachable over n's channels,
	// in channel order.
	Neighbors(n int) []int
}

// Ring connects n nodes in a cycle (2 channels each).
type Ring struct{ N int }

// Nodes implements Topology.
func (r Ring) Nodes() int { return r.N }

// Neighbors implements Topology.
func (r Ring) Neighbors(n int) []int {
	return []int{(n + 1) % r.N, (n - 1 + r.N) % r.N}
}

// Torus is a W x H 2D torus (4 channels each, matching the Piranha
// processing node's channel count).
type Torus struct{ W, H int }

// Nodes implements Topology.
func (t Torus) Nodes() int { return t.W * t.H }

// Neighbors implements Topology.
func (t Torus) Neighbors(n int) []int {
	x, y := n%t.W, n/t.W
	wrap := func(x, y int) int { return ((y+t.H)%t.H)*t.W + (x+t.W)%t.W }
	return []int{wrap(x+1, y), wrap(x-1, y), wrap(x, y+1), wrap(x, y-1)}
}

// Mesh is a W x H 2D mesh (edge nodes have fewer channels).
type Mesh struct{ W, H int }

// Nodes implements Topology.
func (m Mesh) Nodes() int { return m.W * m.H }

// Neighbors implements Topology.
func (m Mesh) Neighbors(n int) []int {
	x, y := n%m.W, n/m.W
	var out []int
	if x+1 < m.W {
		out = append(out, n+1)
	}
	if x > 0 {
		out = append(out, n-1)
	}
	if y+1 < m.H {
		out = append(out, n+m.W)
	}
	if y > 0 {
		out = append(out, n-m.W)
	}
	return out
}

// Full connects every pair of nodes directly.
type Full struct{ N int }

// Nodes implements Topology.
func (f Full) Nodes() int { return f.N }

// Neighbors implements Topology.
func (f Full) Neighbors(n int) []int {
	out := make([]int, 0, f.N-1)
	for i := 0; i < f.N; i++ {
		if i != n {
			out = append(out, i)
		}
	}
	return out
}

// Hops returns the hop distance between every pair of nodes, by a
// breadth-first search from each: hops[s][d] is the length of the
// shortest path from s to d. It fails if some node cannot reach another.
func Hops(t Topology) ([][]int, error) {
	n := t.Nodes()
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = t.Neighbors(i)
	}
	hops := make([][]int, n)
	queue := make([]int, 0, n)
	for src := range hops {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for d, dv := range dist {
			if dv < 0 {
				return nil, fmt.Errorf("noc: node %d unreachable from %d", d, src)
			}
		}
		hops[src] = dist
	}
	return hops, nil
}

// routes computes per-node next-hop tables: next[n][d] lists every
// neighbour of n on a shortest path to d.
func routes(t Topology) ([][][]int, error) {
	hops, err := Hops(t)
	if err != nil {
		return nil, err
	}
	next := make([][][]int, len(hops))
	for src := range next {
		neigh := t.Neighbors(src)
		next[src] = make([][]int, len(hops))
		for dst := range hops {
			if dst == src {
				continue
			}
			for _, v := range neigh {
				if hops[v][dst] == hops[src][dst]-1 {
					next[src][dst] = append(next[src][dst], v)
				}
			}
		}
	}
	return next, nil
}

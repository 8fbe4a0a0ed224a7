package main

// Input generators. Every workload's input is .ispn text (plus, for
// call-churn, a call schedule) made from the --seed argument alone, so the
// program only ever sees generated inputs and the same seed always gives
// the same inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// table3Flow is one flow of the paper's Figure-1 layout with its Table 3
// service assignment.
type table3Flow struct {
	ID   uint32
	Path []string
	Kind string // "peak", "avg", "high", "low"
}

// table3Flows is the paper's Figure-1 flow layout (22 flows, every link
// shared by exactly ten) with the Table 3 assignment: 3 guaranteed at the
// peak clock rate, 2 guaranteed at the average rate, 7 predicted-high and 10
// predicted-low.
var table3Flows = []table3Flow{
	{401, []string{"S1", "S2", "S3", "S4", "S5"}, "peak"},
	{402, []string{"S1", "S2", "S3", "S4", "S5"}, "high"},
	{301, []string{"S1", "S2", "S3", "S4"}, "avg"},
	{302, []string{"S1", "S2", "S3", "S4"}, "low"},
	{303, []string{"S2", "S3", "S4", "S5"}, "low"},
	{304, []string{"S2", "S3", "S4", "S5"}, "low"},
	{201, []string{"S1", "S2", "S3"}, "peak"},
	{202, []string{"S1", "S2", "S3"}, "high"},
	{203, []string{"S3", "S4", "S5"}, "peak"},
	{204, []string{"S3", "S4", "S5"}, "high"},
	{101, []string{"S1", "S2"}, "high"},
	{102, []string{"S1", "S2"}, "low"},
	{103, []string{"S1", "S2"}, "low"},
	{104, []string{"S1", "S2"}, "low"},
	{105, []string{"S2", "S3"}, "high"},
	{106, []string{"S2", "S3"}, "low"},
	{107, []string{"S3", "S4"}, "high"},
	{108, []string{"S3", "S4"}, "low"},
	{109, []string{"S4", "S5"}, "avg"},
	{110, []string{"S4", "S5"}, "high"},
	{111, []string{"S4", "S5"}, "low"},
	{112, []string{"S4", "S5"}, "low"},
}

func arrowPath(p []string) string { return strings.Join(p, " -> ") }

// genTable3 renders the paper's Table 3 configuration: the Figure-1
// five-switch chain (duplex, so TCP ACKs have a way back), the 22 Markov
// flows with their service assignment, the (A, 50) host token bucket in
// front of every guaranteed flow, and two greedy TCP Reno connections.
func genTable3(seed int64, horizon float64) string {
	var b strings.Builder
	b.WriteString("# Paper Table 3: unified scheduling on the Figure-1 chain.\n")
	b.WriteString("net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], buffer 200)\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs, percentiles [50%%, 99%%, 99.9%%])\n", seed, horizon)
	b.WriteString("S1, S2, S3, S4, S5 :: Switch\nS1 <-> S2 <-> S3 <-> S4 <-> S5\n")
	for _, f := range table3Flows {
		path := arrowPath(f.Path)
		switch f.Kind {
		case "peak":
			// Clock rate = peak rate P; b(P) is one packet for an on/off
			// source sending at P.
			fmt.Fprintf(&b, "f%d :: Guaranteed(rate 170kbps, bucket 1000bit, path %s)\n", f.ID, path)
		case "avg":
			fmt.Fprintf(&b, "f%d :: Guaranteed(rate 85kbps, bucket 50kbit, path %s)\n", f.ID, path)
		case "high", "low":
			class := 0
			if f.Kind == "low" {
				class = 1
			}
			fmt.Fprintf(&b, "f%d :: Predicted(rate 85kbps, bucket 50kbit, delay 2s, loss 1%%, class %d, path %s)\n", f.ID, class, path)
		}
		fmt.Fprintf(&b, "m%d :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)\n", f.ID)
		if f.Kind == "peak" || f.Kind == "avg" {
			fmt.Fprintf(&b, "tb%d :: TokenBucket(85pps, 50)\nm%d -> tb%d -> f%d\n", f.ID, f.ID, f.ID, f.ID)
		} else {
			fmt.Fprintf(&b, "m%d -> f%d\n", f.ID, f.ID)
		}
	}
	b.WriteString("tcp1 :: TCP(path S1 -> S2 -> S3)\ntcp2 :: TCP(path S3 -> S4 -> S5)\n")
	return b.String()
}

// genMesh renders a ring of four zero-delay three-switch clusters joined by
// 5 ms links, the shape of the repository's sharded-throughput benchmark.
// Zero-delay links fuse each cluster onto one shard; the 5 ms ring links
// are the lookahead. Each cluster carries guaranteed, predicted and
// datagram traffic, and further flows cross the ring links. The seed picks
// source rates and which cluster members the crossing flows use.
func genMesh(seed int64, horizon float64, shards int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("# Sharded mesh: four zero-delay clusters on a 5 ms ring.\n")
	fmt.Fprintf(&b, "net :: Net(rate 10Mbps, classes 2, targets [32ms, 320ms], buffer 200%s)\n", shardArg(shards))
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs, percentiles [50%%, 99%%, 99.9%%])\n", seed, horizon)
	const clusters = 4
	sw := func(c, i int) string { return fmt.Sprintf("C%dS%d", c, i) }
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&b, "%s, %s, %s :: Switch\n", sw(c, 1), sw(c, 2), sw(c, 3))
		fmt.Fprintf(&b, "%s <-> %s <-> %s\n", sw(c, 1), sw(c, 2), sw(c, 3))
	}
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&b, "%s <-> %s :: Link(delay 5ms, sched wfq)\n", sw(c, 3), sw((c+1)%clusters, 1))
	}
	pps := func(base float64) float64 { return math.Round(base * (0.9 + 0.2*rng.Float64())) }
	for c := 0; c < clusters; c++ {
		local := arrowPath([]string{sw(c, 1), sw(c, 2), sw(c, 3)})
		fmt.Fprintf(&b, "g%d :: Guaranteed(rate 2Mbps, bucket 50kbit, path %s)\n", c, local)
		fmt.Fprintf(&b, "gs%d :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\ngs%d -> g%d\n", c, 2*pps(900), pps(900), c, c)
		for k := 0; k < 2; k++ {
			fmt.Fprintf(&b, "p%d%d :: Predicted(rate 1Mbps, bucket 50kbit, delay 2s, class %d, path %s)\n", c, k, k, local)
			fmt.Fprintf(&b, "ps%d%d :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\nps%d%d -> p%d%d\n", c, k, 2*pps(450), pps(450), c, k, c, k)
		}
		fmt.Fprintf(&b, "d%d :: Datagram(path %s)\n", c, local)
		fmt.Fprintf(&b, "ds%d :: Poisson(rate %gpps, size 1000bit)\nds%d -> d%d\n", c, pps(1500), c, c)
		// Crossing flows: from the first or second switch of this cluster
		// over the ring link to the second switch of the next cluster.
		next := (c + 1) % clusters
		hops := []string{sw(c, 1), sw(c, 2), sw(c, 3), sw(next, 1), sw(next, 2)}
		cross := arrowPath(hops[rng.Intn(2):])
		fmt.Fprintf(&b, "xg%d :: Guaranteed(rate 1Mbps, bucket 50kbit, path %s)\n", c, cross)
		fmt.Fprintf(&b, "xgs%d :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\nxgs%d -> xg%d\n", c, 2*pps(400), pps(400), c, c)
		fmt.Fprintf(&b, "x%d :: Predicted(rate 1Mbps, bucket 50kbit, delay 2s, class 0, path %s)\n", c, cross)
		fmt.Fprintf(&b, "xs%d :: Markov(peak %gpps, avg %gpps, burst 5, size 1000bit)\nxs%d -> x%d\n", c, 2*pps(400), pps(400), c, c)
		fmt.Fprintf(&b, "xd%d :: Datagram(path %s)\n", c, cross)
		fmt.Fprintf(&b, "xds%d :: Poisson(rate %gpps, size 1000bit)\nxds%d -> xd%d\n", c, pps(1200), c, c)
	}
	return b.String()
}

func shardArg(shards int) string {
	if shards > 1 {
		return fmt.Sprintf(", shards %d", shards)
	}
	return ""
}

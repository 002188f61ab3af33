// Network intrusion detection — the introduction's second motivating
// workload. Two capture points stream connection events (Key = source
// host, Val = destination port). The standing queries:
//
//  1. union the two capture points,
//  2. port-scan detection: hosts touching many distinct ports within a
//     short window (count per host over the unioned stream),
//  3. brute-force detection: repeated hits on sensitive ports.
//
// The scan traffic is a needle in the haystack; the cheap filters fuse
// into one virtual operator under HMTS while the stateful aggregation is
// decoupled.
//
//	go run ./examples/intrusion
package main

import (
	"fmt"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/xrand"
)

const (
	hosts     = 1000
	scanner   = 666 // the port-scanning host
	attacker  = 777 // the ssh brute-force host
	perSensor = 150_000
)

func main() {
	eng := hmts.New()

	mkGen := func(seed uint64) hmts.Gen {
		rng := xrand.New(seed)
		return func(i int) hmts.Element {
			host := int64(rng.Intn(hosts))
			port := float64(1 + rng.Intn(1024))
			// The scanner walks ports sequentially, briefly but densely.
			if i%97 == 0 {
				host = scanner
				port = float64(i % 65536)
			}
			// The attacker hammers ssh.
			if i%211 == 0 {
				host = attacker
				port = 22
			}
			return hmts.Element{Key: host, Val: port}
		}
	}
	north := eng.Source("north", hmts.Generate(perSensor, 120_000, mkGen(1)))
	south := eng.Source("south", hmts.Generate(perSensor, 120_000, mkGen(2)))

	all := north.Union("capture", south)

	// Port-scan: more than 40 events from one host within 50ms.
	scanScores := all.
		Aggregate("events-per-host", hmts.Count, 50*time.Millisecond,
			func(e hmts.Element) int64 { return e.Key }).
		Where("scan-threshold", func(e hmts.Element) bool { return e.Val > 40 }).
		Distinct("once-per-window", 50*time.Millisecond)
	scans := scanScores.Collect("scans")

	// Heavy hitters: the busiest hosts in each 50ms window, over a
	// Bernoulli shedder. The hint is TopK's measured cost here (about
	// 300 ns per element over ~1000 live hosts, arriving one at a time)
	// and its selectivity.
	heavy := all.
		Sample("monitor-shed", 0.25, 9).
		TopK("busiest-hosts", 3, 50*time.Millisecond).Hint(300, 0.05).
		Collect("heavy")

	// Brute force: hits on sensitive ports (22, 23, 3389).
	brute := all.
		Where("sensitive-port", func(e hmts.Element) bool {
			p := int(e.Val)
			return p == 22 || p == 23 || p == 3389
		}).
		Aggregate("hits-per-host", hmts.Count, 100*time.Millisecond,
			func(e hmts.Element) int64 { return e.Key }).
		Where("brute-threshold", func(e hmts.Element) bool { return e.Val >= 5 })
	bruteHits := brute.Collect("brute")

	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS})
	eng.Wait()
	scans.Wait()
	bruteHits.Wait()
	heavy.Wait()

	scanHosts := map[int64]int{}
	for _, e := range scans.Elements() {
		scanHosts[e.Key]++
	}
	bruteHosts := map[int64]int{}
	for _, e := range bruteHits.Elements() {
		bruteHosts[e.Key]++
	}
	heavyHosts := map[int64]int{}
	for _, e := range heavy.Elements() {
		heavyHosts[e.Key]++
	}
	fmt.Printf("top-k membership changes: %d across %d hosts\n", heavy.Len(), len(heavyHosts))
	fmt.Printf("port-scan alerts: %d (hosts: %v)\n", scans.Len(), hostList(scanHosts))
	fmt.Printf("brute-force alerts: %d (hosts: %v)\n", bruteHits.Len(), hostList(bruteHosts))
	if scanHosts[scanner] == 0 {
		fmt.Println("WARNING: the port scanner escaped detection")
	} else {
		fmt.Printf("scanner host %d correctly flagged\n", scanner)
	}
	if bruteHosts[attacker] == 0 {
		fmt.Println("WARNING: the brute-force attacker escaped detection")
	} else {
		fmt.Printf("attacker host %d correctly flagged\n", attacker)
	}
	fmt.Println()
	fmt.Println(eng.Metrics())
}

func hostList(m map[int64]int) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

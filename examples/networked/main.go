// Networked: the multi-process deployment. One logical 3-way join runs as
// N key-partitioned worker processes over TCP — in production each worker
// is a `qdhjd` daemon on its own host; here the example embeds the same
// serve loop on loopback listeners so it runs self-contained.
//
// The driver keeps everything that decides results: disorder handling,
// the quality-driven buffer-size feedback loop, watermark and interval
// accounting. Workers only hold window state and answer probes, so every
// worker count and frame-batch setting reproduces the flat in-process
// run bit-for-bit — results, counts, and the K trajectory. The demo
// proves it twice: once healthy, and once with a worker process dying
// mid-stream and the supervised driver recovering it from a driver-side
// checkpoint.
//
// See the top-level README.md ("Networked deployment") and DESIGN.md §14
// for the wire format and the cross-process determinism argument.
package main

import (
	"fmt"
	stdnet "net"

	qdhj "repro"
	"repro/internal/gen"
	qnet "repro/internal/net"
	"repro/internal/stream"
)

// startWorker embeds one worker daemon on a loopback listener — exactly
// the loop `qdhjd -listen` runs. inj arms a deterministic worker-side
// fault (nil for a healthy worker).
func startWorker(inj *qdhj.Injector) string {
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go qnet.Serve(l, qnet.ServeConfig{Inject: inj})
	return l.Addr().String()
}

func run(ds *gen.Dataset, opts ...qdhj.JoinOption) *qdhj.Join {
	j := qdhj.NewJoin(ds.Cond, ds.Windows, qdhj.Options{Gamma: 0.95}, opts...)
	for _, e := range ds.Arrivals.Clone() {
		j.Push(e)
	}
	j.Close()
	return j
}

func main() {
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 2 * stream.Minute, Seed: 12})
	fmt.Printf("3-way equi join, %d tuples\n\n", len(ds.Arrivals))

	// The flat in-process reference every networked run must match.
	ref := run(ds)
	fmt.Printf("%-22s  %-10s  %-10s  %s\n", "deployment", "results", "avg K", "adapts")
	fmt.Printf("%-22s  %-10d  %-10.0f  %d\n", "flat (in-process)", ref.Results(), ref.AvgK(), ref.Adaptations())

	// Healthy networked runs: 2 workers, per-tuple and batched framing.
	for _, batch := range []int{1, 128} {
		addrs := []string{startWorker(nil), startWorker(nil)}
		j := run(ds,
			qdhj.WithRemoteWorkers(addrs...),
			qdhj.WithFrameBatch(batch))
		fmt.Printf("%-22s  %-10d  %-10.0f  %d\n",
			fmt.Sprintf("2 workers, batch %d", batch), j.Results(), j.AvgK(), j.Adaptations())
	}

	// A worker process dies mid-stream: a deterministic fault fires inside
	// worker 1 at its 2000th probe (stand-in for a crash or a cut cable).
	// The supervised driver sees the typed failure at the next barrier,
	// re-dials, restores that worker's windows from the driver-side
	// checkpoint (checkpoints never cross the wire) and replays — the
	// recovered run still matches the reference exactly.
	inj := qdhj.NewInjector()
	inj.PanicAt(1, 2000)
	addrs := []string{startWorker(nil), startWorker(inj)}
	j := run(ds,
		qdhj.WithRemoteWorkers(addrs...),
		qdhj.WithSupervision(qdhj.Supervision{CheckpointEvery: 1}))
	fmt.Printf("%-22s  %-10d  %-10.0f  %d   (worker restarts: %d)\n",
		"2 workers, 1 killed", j.Results(), j.AvgK(), j.Adaptations(), j.Restarts())

	if j.Results() != ref.Results() || j.Restarts() < 1 {
		panic("networked run diverged from the flat reference")
	}
	fmt.Println("\nIdentical results and adaptation trajectories on every row: the")
	fmt.Println("driver routes and merges exactly like the in-process runtime, each")
	fmt.Println("worker runs the in-process worker's step, and TCP preserves per-worker")
	fmt.Println("order — so the process boundary is invisible to the result stream.")
}

package qdhj_test

import (
	"fmt"

	qdhj "repro"
)

// ExampleNewJoin demonstrates the core loop: declare the join, state the
// quality requirement, push arrivals, read results.
func ExampleNewJoin() {
	cond := qdhj.EquiChain(2, 0)
	windows := []qdhj.Time{qdhj.Second, qdhj.Second}

	var kept []qdhj.Result
	j := qdhj.NewJoin(cond, windows,
		qdhj.Options{Gamma: 0.95, Period: 10 * qdhj.Second},
		// r is borrowed until the callback returns: keep its clone.
		qdhj.WithResults(func(r qdhj.Result) { kept = append(kept, r.Clone()) }),
	)

	// Stream 0 emits key 7 at t=1000; stream 1 emits key 7 at t=1200 —
	// within the window, so they join. A later key 9 finds no partner.
	j.Push(&qdhj.Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}})
	j.Push(&qdhj.Tuple{TS: 1200, Seq: 1, Src: 1, Attrs: []float64{7}})
	j.Push(&qdhj.Tuple{TS: 1400, Seq: 2, Src: 0, Attrs: []float64{9}})
	j.Close()

	for _, r := range kept {
		fmt.Printf("key=%v@%d\n", r.Tuples[0].Attr(0), r.TS)
	}
	// Output: key=7@1200
}

// ExampleCondition_Where shows an arbitrary (UDF) join condition — the
// paper's dist() < 5 proximity query shape.
func ExampleCondition_Where() {
	cond := qdhj.Cross(2).Where([]int{0, 1}, func(a []*qdhj.Tuple) bool {
		dx := a[0].Attr(0) - a[1].Attr(0)
		dy := a[0].Attr(1) - a[1].Attr(1)
		return dx*dx+dy*dy < 25 // closer than 5 units
	})

	var n int
	j := qdhj.NewJoin(cond, []qdhj.Time{qdhj.Second, qdhj.Second},
		qdhj.Options{Policy: qdhj.StaticSlack, StaticK: qdhj.Second},
		qdhj.WithResults(func(qdhj.Result) { n++ }),
	)
	j.Push(&qdhj.Tuple{TS: 100, Seq: 0, Src: 0, Attrs: []float64{10, 10}})
	j.Push(&qdhj.Tuple{TS: 150, Seq: 1, Src: 1, Attrs: []float64{12, 13}}) // ≈3.6 away
	j.Push(&qdhj.Tuple{TS: 200, Seq: 2, Src: 1, Attrs: []float64{40, 40}}) // far
	j.Close()

	fmt.Println(n)
	// Output: 1
}

// ExampleJoin_RunChannel wires the join between channels.
func ExampleJoin_RunChannel() {
	j := qdhj.NewJoin(qdhj.EquiChain(2, 0),
		[]qdhj.Time{qdhj.Second, qdhj.Second},
		qdhj.Options{Policy: qdhj.StaticSlack, StaticK: 500})

	in := make(chan *qdhj.Tuple, 4)
	out := j.RunChannel(in)
	in <- &qdhj.Tuple{TS: 100, Seq: 0, Src: 0, Attrs: []float64{1}}
	in <- &qdhj.Tuple{TS: 130, Seq: 1, Src: 1, Attrs: []float64{1}}
	close(in)

	for r := range out {
		fmt.Println(len(r.Tuples), r.TS)
	}
	// Output: 2 0.130s
}

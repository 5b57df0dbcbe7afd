// Package loopback starts in-process servers on loopback TCP listeners for
// tests — the networked runtime's worker daemons, run by the same Serve
// loop cmd/qdhjd runs. It imports nothing of this module, so the tests of
// the networked runtime itself use it too.
package loopback

import (
	"net"
	"testing"
)

// Listen opens n listeners on 127.0.0.1, runs serve on the i-th in a
// goroutine of its own and returns their addresses. Test cleanup closes the
// listeners, which ends the serve loops, and waits for each to return.
func Listen(t testing.TB, n int, serve func(i int, l net.Listener)) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serve(i, l)
		}()
		t.Cleanup(func() {
			l.Close()
			<-done
		})
	}
	return addrs
}

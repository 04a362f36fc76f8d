// Package cli holds what the command-line binaries share: turning a
// configuration the Runner rejects into one line on stderr and an exit
// code, where a raw panic would print a goroutine trace.
package cli

import (
	"fmt"
	"io"
	"runtime"
)

// Run calls body and returns the process exit code. The Runner rejects an
// invalid point by panicking with the error of CoreConfig.Validate; Run
// reports that as "name: error" on stderr and returns 2, the usage-error
// code. Any other panic — a runtime error, a protocol invariant — is a
// bug and propagates, trace and all.
func Run(name string, stderr io.Writer, body func()) (code int) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, rejected := r.(error)
		if _, bug := r.(runtime.Error); !rejected || bug {
			panic(r)
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		code = 2
	}()
	body()
	return 0
}

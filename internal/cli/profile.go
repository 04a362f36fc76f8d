package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Profiles is the pair of profiling flags every command carries:
// -cpuprofile and -memprofile, the files `go tool pprof` reads. The
// commands run the same code the benchmark times, so a cost the benchmark
// names can be looked at where a figure or a single point pays it.
type Profiles struct {
	fs       *flag.FlagSet
	cpu, mem string
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{fs: fs}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this `file`")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this `file` when the run ends")
	return p
}

// Start begins the CPU profile, if the parsed flags ask for one, and
// returns the stop function the command defers: it ends the CPU profile
// and writes the allocation profile. With neither flag set both are
// no-ops. A profile file that cannot be created fails Start; a failure
// while writing one is reported on the flag set's output, as the command
// has its results by then. A run that leaves through os.Exit skips the
// deferred stop and loses its profiles.
func (p *Profiles) Start() (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			p.report(cpu.Close())
		}
		if p.mem != "" {
			p.report(writeAllocProfile(p.mem))
		}
	}, nil
}

// writeAllocProfile writes every allocation since the start of the
// program, sampled, after a collection has brought the live figures up to
// date — what `go test -memprofile` writes.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}

func (p *Profiles) report(err error) {
	if err != nil {
		fmt.Fprintf(p.fs.Output(), "%s: %v\n", filepath.Base(p.fs.Name()), err)
	}
}

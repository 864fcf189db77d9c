// Package cliflags defines the flag surface shared by the XT-910 campaign
// CLIs (xtfuzz, xtinject, xtbench): one definition of the uniform knobs
// -n / -seed / -jobs / -json / -timeout plus the composable -modes spec, so
// every tool spells them the same way and the seed-range and mode parsing
// live in exactly one place. Defaults differ per tool; names and meanings
// never do. The host-profiling flags -cpuprofile / -memprofile, the
// daemons' live -pprof endpoint, and the -config core preset name that
// xt910sim and xttrace take, live here too.
package cliflags

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"xt910/internal/core"
	"xt910/internal/cosim"
)

// RegisterCoreConfig adds -config, which names the core: the paper's XT-910
// (the default) or one of its two comparison cores. fs.Parse rejects any
// other name, so a bad one is a usage error in every tool.
func RegisterCoreConfig(fs *flag.FlagSet) *core.Config {
	cfg := core.XT910Config()
	fs.Func("config", "core configuration: xt910, u74 or a73 (default xt910)", func(name string) error {
		preset, ok := map[string]func() core.Config{
			"xt910": core.XT910Config, "u74": core.U74Config, "a73": core.A73Config}[name]
		if !ok {
			return fmt.Errorf("unknown config %q (xt910, u74, a73)", name)
		}
		cfg = preset()
		return nil
	})
	return &cfg
}

// Knobs is the uniform campaign knob set: the -n / -seed / -jobs / -timeout /
// -modes values a CLI invocation carries. A tool registers the subset it
// supports with the Register* methods and reads the fields after fs.Parse.
// As JSON it is the image a campaign manifest records and a service
// reconstructs the exact run from.
type Knobs struct {
	N       int           `json:"n,omitempty"`
	Seed    int64         `json:"seed,omitempty"`
	Jobs    int           `json:"jobs,omitempty"`
	Timeout time.Duration `json:"timeout,omitempty"`
	Modes   string        `json:"modes,omitempty"`
}

// RegisterSeeds registers -n (seed count, tool-specific default) and -seed
// (first seed).
func (k *Knobs) RegisterSeeds(fs *flag.FlagSet, defaultN int) {
	fs.IntVar(&k.N, "n", defaultN, "number of seeds to run")
	fs.Int64Var(&k.Seed, "seed", 1, "first seed")
}

// RegisterPool registers -jobs with the shared default and wording.
func (k *Knobs) RegisterPool(fs *flag.FlagSet) {
	fs.IntVar(&k.Jobs, "jobs", runtime.GOMAXPROCS(0),
		"worker-pool width (1 = serial; results identical at any width)")
}

// RegisterTimeout registers -timeout (tool-specific default and usage).
func (k *Knobs) RegisterTimeout(fs *flag.FlagSet, def time.Duration, usage string) {
	fs.DurationVar(&k.Timeout, "timeout", def, usage)
}

// RegisterModes registers -modes, the composable mode spec CosimModes parses.
func (k *Knobs) RegisterModes(fs *flag.FlagSet) {
	fs.StringVar(&k.Modes, "modes", "", "comma-separated fuzz modes: paged, irq, smp")
}

// Seeds expands (-seed, -n) into the campaign's seed list.
func (k Knobs) Seeds() []int64 {
	s := make([]int64, k.N)
	for i := range s {
		s[i] = k.Seed + int64(i)
	}
	return s
}

// CosimModes parses the -modes spec into a validated mode set.
func (k Knobs) CosimModes() (cosim.Modes, error) { return cosim.ParseModes(k.Modes) }

// RegisterJSON registers -json. Output format is no part of a run, so it is
// not one of the Knobs.
func RegisterJSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit machine-readable JSON on stdout")
}

// Profile holds the host-profiling flags -cpuprofile / -memprofile. They
// observe the tool itself, not the simulated machine, so they are not part of
// Knobs and never travel in a campaign Spec.
type Profile struct {
	CPU string
	Mem string
}

// RegisterProfile registers -cpuprofile and -memprofile.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	p := new(Profile)
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a host CPU profile (runtime/pprof) to `file`")
	fs.StringVar(&p.Mem, "memprofile", "", "write a host allocation profile (runtime/pprof) to `file` at exit")
	return p
}

// StartProfile starts the CPU profile, if one was asked for. The returned
// stop function ends it and then writes the allocation profile; call it
// once, when the work to be profiled is over.
func StartProfile(p *Profile) (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			first = cpu.Close()
		}
		if p.Mem != "" {
			if err := writeAllocProfile(p.Mem); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile is as of the last collection: make that now
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RegisterPprof registers -pprof, the long-running tools' live counterpart of
// -cpuprofile: where a profile file needs the process to exit, this answers
// `go tool pprof http://addr/debug/pprof/profile` while a fleet is serving.
func RegisterPprof(fs *flag.FlagSet) *string {
	return fs.String("pprof", "", "serve net/http/pprof on `addr` (host:0 picks a port); empty binds nothing")
}

// ServePprof serves the net/http/pprof handlers under /debug/pprof/ on a
// listener and a mux of their own, so that no API mux ever exposes them. It
// returns the bound address for the caller to log and a stop function that
// closes the listener and waits for the server to return. With an empty addr
// it binds nothing and returns a nil address.
func ServePprof(addr string) (bound net.Addr, stop func(), err error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return ln.Addr(), func() {
		srv.Close()
		<-done
	}, nil
}

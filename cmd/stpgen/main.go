// Command stpgen generates PUC-family Steiner tree instances (hypercube,
// code-cover/Hamming, bipartite) in SteinLib .stp format.
//
// Usage:
//
//	stpgen -family hc -d 6 -perturbed > hc6p.stp
//	stpgen -family cc -d 3 -a 4 -terminals 8 > cc3-4.stp
//	stpgen -family bip -terminals 16 -steiner 80 > bip.stp
//	stpgen -named hc6u > hc6u.stp
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

func main() {
	var (
		family    = flag.String("family", "hc", "family: hc, cc, bip")
		named     = flag.String("named", "", "named instance (overrides family flags): "+strings.Join(puc.Names(), ", "))
		d         = flag.Int("d", 5, "dimension (hc, cc)")
		a         = flag.Int("a", 3, "alphabet size (cc)")
		terminals = flag.Int("terminals", 0, "terminal count (cc, bip, hc with -terminals)")
		steinerN  = flag.Int("steiner", 60, "Steiner-side size (bip)")
		deg       = flag.Int("deg", 3, "terminal degree (bip)")
		perturbed = flag.Bool("perturbed", false, "perturbed costs (p variant) instead of unit (u)")
		seed      = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	var s *steiner.SPG
	if *named != "" {
		if s = puc.Named(*named); s == nil {
			fmt.Fprintf(os.Stderr, "stpgen: unknown named instance %q\n", *named)
			os.Exit(2)
		}
	} else {
		var err error
		s, _, err = puc.Generate(puc.Params{
			Family: *family, D: *d, A: *a, Terminals: *terminals, Steiner: *steinerN, Deg: *deg,
			Perturbed: *perturbed, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stpgen:", err)
			os.Exit(2)
		}
	}
	if err := steiner.WriteSTP(os.Stdout, s); err != nil {
		fmt.Fprintln(os.Stderr, "stpgen:", err)
		os.Exit(1)
	}
}

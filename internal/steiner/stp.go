package steiner

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MaxSTPNodes caps the Nodes line ReadSTP accepts. Each vertex is
// allocated before any edge is read, so the cap bounds what one header
// line can ask for (about 27 MB at the cap) while admitting every
// SteinLib instance.
const MaxSTPNodes = 1 << 20

// maxSTPLine caps the length of one line ReadSTP reads; a longer line is
// an error (bufio.ErrTooLong).
const maxSTPLine = 1 << 20

// ReadSTP parses a SteinLib .stp file (the format of the PUC benchmark
// set). Only the sections relevant to the SPG are interpreted: graph
// (nodes/edges) and terminals. Vertex numbering is 1-based in the file
// and 0-based in the SPG. Input is untrusted (ugserve parses inline
// jobs): a malformed line, an out-of-range vertex, a cost that is not a
// finite non-negative number or a node count outside [0, MaxSTPNodes] is
// an error, never a panic.
func ReadSTP(r io.Reader) (*SPG, error) {
	sc := bufio.NewScanner(r)
	// Start small: the buffer grows only when a line needs it, so a
	// small inline job does not pay for the longest line admitted.
	sc.Buffer(make([]byte, 0, 4096), maxSTPLine)
	var spg *SPG
	name := ""
	section := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToLower(fields[0])
		// vertex parses fields[i] as a 1-based vertex of the graph read
		// so far and returns it 0-based.
		vertex := func(i int) (int, error) {
			if spg == nil {
				return 0, fmt.Errorf("stp: %q before nodes", line)
			}
			if i >= len(fields) {
				return 0, fmt.Errorf("stp: bad %s line %q", key, line)
			}
			v, err := strconv.Atoi(fields[i])
			if err != nil || v < 1 || v > spg.G.NumVertices() {
				return 0, fmt.Errorf("stp: bad vertex %q in line %q", fields[i], line)
			}
			return v - 1, nil
		}
		switch {
		case key == "section":
			if len(fields) < 2 {
				return nil, fmt.Errorf("stp: bad section line %q", line)
			}
			section = strings.ToLower(fields[1])
		case key == "end":
			section = ""
		case section == "comment" && key == "name":
			name = strings.Trim(strings.Join(fields[1:], " "), "\"")
		case section == "graph" && key == "nodes":
			n := -1
			if len(fields) > 1 {
				if v, err := strconv.Atoi(fields[1]); err == nil {
					n = v
				}
			}
			if n < 0 || n > MaxSTPNodes {
				return nil, fmt.Errorf("stp: bad nodes line %q (0 to %d nodes)", line, MaxSTPNodes)
			}
			spg = NewSPG(n)
		case section == "graph" && (key == "e" || key == "a"):
			u, err := vertex(1)
			if err != nil {
				return nil, err
			}
			v, err := vertex(2)
			if err != nil {
				return nil, err
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("stp: bad edge line %q", line)
			}
			c, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || !(c >= 0) || math.IsInf(c, 1) {
				return nil, fmt.Errorf("stp: bad edge line %q", line)
			}
			if u != v {
				spg.G.AddEdge(u, v, c)
			}
		case section == "terminals" && key == "t":
			t, err := vertex(1)
			if err != nil {
				return nil, err
			}
			spg.Terminal[t] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if spg == nil {
		return nil, fmt.Errorf("stp: no graph section")
	}
	spg.Name = name
	return spg, nil
}

// WriteSTP emits the instance in SteinLib format.
func WriteSTP(w io.Writer, s *SPG) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "33D32945 STP File, STP Format Version 1.0")
	fmt.Fprintln(bw, "SECTION Comment")
	fmt.Fprintf(bw, "Name \"%s\"\n", s.Name)
	fmt.Fprintln(bw, "END")
	fmt.Fprintln(bw, "SECTION Graph")
	fmt.Fprintf(bw, "Nodes %d\n", s.G.NumVertices())
	fmt.Fprintf(bw, "Edges %d\n", s.G.AliveEdges())
	for e := range s.G.Edges {
		if !s.G.EdgeAlive(e) {
			continue
		}
		ed := s.G.Edges[e]
		fmt.Fprintf(bw, "E %d %d %g\n", ed.U+1, ed.V+1, ed.Cost)
	}
	fmt.Fprintln(bw, "END")
	fmt.Fprintln(bw, "SECTION Terminals")
	fmt.Fprintf(bw, "Terminals %d\n", s.NumTerminals())
	for v, t := range s.Terminal {
		if t && s.G.VertexAlive(v) {
			fmt.Fprintf(bw, "T %d\n", v+1)
		}
	}
	fmt.Fprintln(bw, "END")
	fmt.Fprintln(bw, "EOF")
	return bw.Flush()
}

// Flame view: merge every complete span into one aggregated call tree
// — run → subsystem → nested span names — with total and self time per
// node. Nesting within a track is recovered by a start-ordered stack
// sweep, then identical paths from every track instance merge into one
// node, so "how much block time is verify, across all chains" reads
// off a single row.
package traceview

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"
)

// FlameNode is one aggregated node of the merged span tree. Total is
// the summed duration of every merged span instance; Self is Total
// minus the time covered by child spans. Pure container nodes (the
// root and subsystems) have Count 0 and Self 0.
type FlameNode struct {
	Name     string        `json:"name"`
	Count    int           `json:"count,omitempty"`
	Total    time.Duration `json:"total"`
	Self     time.Duration `json:"self"`
	Children []*FlameNode  `json:"children,omitempty"`
}

// flameSpan is one complete span during the per-track nesting sweep.
type flameSpan struct {
	start, end time.Duration
	name       string
}

// Flame aggregates every complete span in events into a merged tree
// rooted at "run". Children are sorted by total time descending (ties
// by name), making the document deterministic for a given event
// multiset.
func Flame(events []Event) *FlameNode {
	perTrack := map[string][]flameSpan{}
	var trackNames []string
	for _, ev := range events {
		if ev.Phase != 'X' {
			continue
		}
		if _, ok := perTrack[ev.Track]; !ok {
			trackNames = append(trackNames, ev.Track)
		}
		perTrack[ev.Track] = append(perTrack[ev.Track], flameSpan{start: ev.TS, end: ev.TS + ev.Dur, name: ev.Name})
	}
	sort.Strings(trackNames)

	root := &FlameNode{Name: "run"}
	index := map[*FlameNode]map[string]*FlameNode{}
	child := func(parent *FlameNode, name string) *FlameNode {
		kids := index[parent]
		if kids == nil {
			kids = map[string]*FlameNode{}
			index[parent] = kids
		}
		if n, ok := kids[name]; ok {
			return n
		}
		n := &FlameNode{Name: name}
		kids[name] = n
		parent.Children = append(parent.Children, n)
		return n
	}

	for _, track := range trackNames {
		spans := perTrack[track]
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			if spans[i].end != spans[j].end {
				return spans[i].end > spans[j].end // parent before equal-start child
			}
			return spans[i].name < spans[j].name // interleaving-independent tie
		})
		sub := child(root, subsystemOf(track))
		type frame struct {
			end  time.Duration
			node *FlameNode
		}
		var stack []frame
		for _, sp := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= sp.start {
				stack = stack[:len(stack)-1]
			}
			parent := sub
			if len(stack) > 0 {
				parent = stack[len(stack)-1].node
			}
			node := child(parent, sp.name)
			node.Count++
			node.Total += sp.end - sp.start
			stack = append(stack, frame{end: sp.end, node: node})
		}
	}
	finalizeFlame(root)
	return root
}

// finalizeFlame rolls container totals up from their children, derives
// self time, and sorts every child list into the canonical order.
func finalizeFlame(n *FlameNode) {
	var kids time.Duration
	for _, c := range n.Children {
		finalizeFlame(c)
		kids += c.Total
	}
	if n.Count == 0 {
		n.Total = kids
	} else if n.Self = n.Total - kids; n.Self < 0 {
		// Overlapping siblings (possible in hand-edited traces) can
		// push covered time past the parent; clamp rather than report
		// negative self time.
		n.Self = 0
	}
	sort.SliceStable(n.Children, func(i, j int) bool {
		if n.Children[i].Total != n.Children[j].Total {
			return n.Children[i].Total > n.Children[j].Total
		}
		return n.Children[i].Name < n.Children[j].Name
	})
}

// FlameJSON renders the tree as the canonical indented JSON document.
// Durations marshal as integer nanoseconds, so the bytes are exactly
// reproducible for a given tree.
func FlameJSON(root *FlameNode) []byte {
	data, err := json.MarshalIndent(root, "", "  ")
	if err != nil { // a tree of plain values cannot fail to marshal
		panic(err)
	}
	return append(data, '\n')
}

// WriteFlame renders the tree as an indented table, depth-first in
// canonical order. maxRows bounds the output (0 = unlimited); subtrees
// below 0.05% of the run are elided to keep the table readable.
func WriteFlame(w io.Writer, root *FlameNode, maxRows int) {
	total := root.Total
	fmt.Fprintf(w, "%-44s %-8s %-14s %-14s %s\n", "span tree", "count", "total", "self", "share")
	rows := 0
	var walk func(n *FlameNode, depth int)
	walk = func(n *FlameNode, depth int) {
		if maxRows > 0 && rows >= maxRows {
			return
		}
		share := 1.0
		if total > 0 {
			share = float64(n.Total) / float64(total)
		}
		if depth > 0 && share < 0.0005 {
			return
		}
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		fmt.Fprintf(w, "%-44s %-8d %-14v %-14v %s\n", indent+n.Name, n.Count, n.Total, n.Self, fmtShare(share))
		rows++
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// flamePalette is the fixed fill rotation; a node's color depends only
// on its name so the same span reads the same across runs and views.
var flamePalette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
	"#76b7b2", "#edc948", "#b07aa1", "#9c755f",
}

func flameColor(name string) string {
	h := fnv.New32a()
	h.Write([]byte(name))
	return flamePalette[h.Sum32()%uint32(len(flamePalette))]
}

// Flame SVG geometry.
const (
	flameWidth  = 720.0
	flameRowH   = 18.0
	flameMinPx  = 0.5 // sub-pixel rects (and their subtrees) are elided
	flamePad    = 2.0
	flameLabelW = 6.5 // conservative per-character width estimate
)

// FlameSVG renders the tree as an inline icicle chart: the root spans
// the full width, each child row nests beneath proportionally to its
// total time, and every rect carries a <title> tooltip with the exact
// numbers. Output is deterministic: fixed geometry, fixed two-decimal
// coordinates, name-hashed fill colors.
func FlameSVG(w io.Writer, root *FlameNode) error {
	depth := flameDepth(root)
	height := float64(depth)*flameRowH + 2*flamePad
	if _, err := fmt.Fprintf(w,
		"<svg class=\"flame\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"flame graph\">\n",
		flameWidth, height, flameWidth, height); err != nil {
		return err
	}
	if root.Total > 0 {
		scale := (flameWidth - 2*flamePad) / float64(root.Total)
		if err := writeFlameNode(w, root, root.Total, flamePad, flamePad, scale); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "</svg>\n")
	return err
}

func flameDepth(n *FlameNode) int {
	d := 0
	for _, c := range n.Children {
		if cd := flameDepth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

func writeFlameNode(w io.Writer, n *FlameNode, runTotal time.Duration, x, y, scale float64) error {
	width := float64(n.Total) * scale
	if width < flameMinPx {
		return nil
	}
	share := float64(n.Total) / float64(runTotal)
	title := fmt.Sprintf("%s — count %d, total %v, self %v (%s of run)",
		n.Name, n.Count, n.Total, n.Self, fmtShare(share))
	if _, err := fmt.Fprintf(w,
		"<g><title>%s</title><rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" rx=\"1\" fill=\"%s\" stroke=\"#ffffff\" stroke-width=\"0.5\"/>",
		svgEscape(title), x, y, width, flameRowH-1, flameColor(n.Name)); err != nil {
		return err
	}
	if label := flameLabel(n.Name, width); label != "" {
		if _, err := fmt.Fprintf(w,
			"<text x=\"%.2f\" y=\"%.2f\" font-size=\"11\" fill=\"#ffffff\">%s</text>",
			x+3, y+flameRowH-6, svgEscape(label)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "</g>\n"); err != nil {
		return err
	}
	cx := x
	for _, c := range n.Children {
		if err := writeFlameNode(w, c, runTotal, cx, y+flameRowH, scale); err != nil {
			return err
		}
		cx += float64(c.Total) * scale
	}
	return nil
}

// flameLabel truncates a name to what fits inside a rect of the given
// pixel width, or returns "" when even a few characters don't fit.
func flameLabel(name string, width float64) string {
	fit := int((width - 6) / flameLabelW)
	if fit < 3 {
		return ""
	}
	if len(name) <= fit {
		return name
	}
	if fit <= 1 {
		return ""
	}
	return name[:fit-1] + "…"
}

// svgEscape escapes text for embedding in SVG/XML content.
func svgEscape(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

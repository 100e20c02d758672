// The fidelity report: the paper's findings as claims over the figure
// results a sweep records. FIDELITY.json holds it at the sweep's
// defaults with one seed; the root TestFidelity regenerates it.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Claim is one row of the fidelity report: a measured number (four
// significant digits; a degenerate ratio reads "NaN" or "+Inf", in no
// band), the band it must lie in and the paper's value where recorded.
type Claim struct {
	Artifact string `json:"artifact"`
	Shape    string `json:"shape"`
	Paper    string `json:"paper,omitempty"`
	Measured string `json:"measured"`
	Band     string `json:"band"`
	Pass     bool   `json:"pass"`
}

// holds reports whether v lies in band, an interval written "[lo, hi]"
// where '(' or ')' excludes the bound beside it and a bound may be -Inf
// or +Inf.
func holds(v float64, band string) bool {
	lo, hi, _ := strings.Cut(band[1:len(band)-1], ", ")
	l, err1 := strconv.ParseFloat(lo, 64)
	h, err2 := strconv.ParseFloat(hi, 64)
	if err1 != nil || err2 != nil {
		panic("experiments: malformed band " + band)
	}
	return (v > l || band[0] == '[' && v == l) && (v < h || band[len(band)-1] == ']' && v == h)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// paperGas is §IV-A's average gas of 100 messages; a live batch adds its
// transaction overhead and, on a recv or ack, a client update.
var paperGas = map[string]float64{"MsgTransfer": 3669161, "MsgRecvPacket": 7238699, "MsgAcknowledgement": 3107462}

// Fidelity reduces the figure results a sweep records, keyed by entry
// name, to the claims they bear on, in the paper's order. Fig. 9's claim
// reads fig8 and fig9 both, so it takes the whole map.
func Fidelity(results map[string]any) []Claim {
	var out []Claim
	add := func(artifact, shape, paper string, v float64, band string) {
		out = append(out, Claim{artifact, shape, paper, num(v), band, holds(v, band)})
	}
	if r, ok := results["tendermint"].(TendermintResult); ok {
		tfps, iv, broken := map[int]float64{}, map[int]float64{}, 0
		for i, row := range r.Table1 { // Figs. 6 and 7 list the same rates in the same order
			tfps[row.Rate], iv[row.Rate] = r.Fig6.Y[i].Mean, r.Fig7.Y[i].Mean
			if row.Committed == 0 || row.Requested < row.Submitted || row.Submitted < row.Committed {
				broken++
			}
		}
		add("Fig. 6", "TFPS(3000) / TFPS(500): throughput rises", "", tfps[3000]/tfps[500], "(1, +Inf)")
		add("Fig. 6", "TFPS(13000) / TFPS(2000): throughput saturates", "", tfps[13000]/tfps[2000], "(-Inf, 1.5]")
		add("Fig. 7", "interval(9000) / interval(500): blocks stretch", "5 s -> tens of s", iv[9000]/iv[500], "(1.5, +Inf)")
		add("Table I", "rows breaking requested >= submitted >= committed > 0", "", float64(broken), "[0, 0]")
	}
	var onePeak float64
	if s, ok := results["fig8"].(section); ok {
		pts := s.data.([]RelayerPoint)
		at, peak := byRate(pts)
		onePeak = peak.Throughput.Mean
		add("Fig. 8", "TFPS(100) / TFPS(20): throughput rises", "", at[100].Throughput.Mean/at[20].Throughput.Mean, "(1, +Inf)")
		add("Fig. 8", "TFPS(300) / peak TFPS: throughput declines", "", at[300].Throughput.Mean/onePeak, "(-Inf, 1)")
		add("Fig. 8", "transfers completed at 20 rps", "", at[20].Completed, "(0, +Inf)")
		add("Fig. 8", "peak rate strictly inside the swept rates", "~140 rps", float64(peak.Rate),
			fmt.Sprintf("(%d, %d)", pts[0].Rate, pts[len(pts)-1].Rate))
	}
	if s, ok := results["fig9"].(section); ok {
		pts := s.data.([]RelayerPoint)
		if _, peak := byRate(pts); results["fig8"] != nil {
			add("Fig. 9", "peak TFPS, two relayers / one: no gain", "", peak.Throughput.Mean/onePeak, "(-Inf, 1]")
		}
		fewest := math.Inf(1)
		for _, p := range pts {
			fewest = min(fewest, p.RedundantErrors)
		}
		add("Fig. 9", "redundant errors at every rate (fewest)", "", fewest, "(0, +Inf)")
	}
	if r, ok := results["fig12"].(Fig12Result); ok {
		total := r.Total.Seconds()
		add("Fig. 12", "share of the burst completed", "", float64(r.Completed)/float64(r.Transfers), "[1, 1]")
		add("Fig. 12", "total seconds", "~455 s", total, "[60, 650]")
		add("Fig. 12", "data pulls' share of the total", "69 %", (r.TransferDataPull+r.RecvDataPull).Seconds()/total, "[0.5, 0.95]")
		add("Fig. 12", "ack phase / transfer phase", "", r.AckPhase.Seconds()/r.TransferPhase.Seconds(), "(-Inf, 1]")
	}
	if s, ok := results["fig13"].(section); ok {
		t, done := map[int]float64{}, 1.0
		for _, r := range s.data.([]Fig13Row) {
			t[r.Blocks] = r.Completion.Seconds()
			done = min(done, float64(r.Completed)/float64(r.Transfers))
		}
		add("Fig. 13", "share completed, worst strategy", "", done, "[1, 1]")
		add("Fig. 13", "t(16 blocks) / t(1 block): spreading helps", "138 / 455 s", t[16]/t[1], "(-Inf, 1)")
		add("Fig. 13", "t(64 blocks) / t(16 blocks): then inverts", "441 / 138 s", t[64]/t[16], "(1, +Inf)")
		add("Fig. 13", "reduction at 16 blocks", "~70 %", 1-t[16]/t[1], "[0.4, +Inf)")
	}
	if s, ok := results["gas"].(section); ok {
		for _, r := range s.data.([]GasRow) {
			p := paperGas[r.MsgType]
			add("§IV-A", r.MsgType+" gas x100: measured / paper - 1", strconv.FormatFloat(p, 'f', -1, 64),
				float64(r.Measured)/p-1, "[-0.05, 0.05]")
		}
	}
	if r, ok := results["ws"].(WebSocketResult); ok {
		n := float64(r.Transfers)
		add("§V", "WebSocket frames lost", "", float64(r.FramesLost), "(0, +Inf)")
		add("§V", "share stuck", "81.8 %", float64(r.Stuck)/n, "(0, +Inf)")
		add("§V", "share stuck - share completed", "81.8 - 2.5 %", float64(r.Stuck-r.Completed)/n, "(0, +Inf)")
	}
	return out
}

// byRate indexes a relayer sweep by rate and finds its first peak.
func byRate(pts []RelayerPoint) (map[int]RelayerPoint, RelayerPoint) {
	m, peak := map[int]RelayerPoint{}, RelayerPoint{}
	for _, p := range pts {
		m[p.Rate] = p
		if p.Throughput.Mean > peak.Throughput.Mean {
			peak = p
		}
	}
	return m, peak
}

// RenderClaims writes the report as a table, or nothing when no claim
// applies, and returns how many rows failed.
func RenderClaims(w io.Writer, claims []Claim) (failed int) {
	if len(claims) == 0 {
		return 0
	}
	row := "%-4s %-8s %-56s %-10s %-14s %s\n"
	fmt.Fprintf(w, "# Fidelity: the paper's findings in this run\n"+row, "", "artifact", "shape", "measured", "band", "paper")
	for _, c := range claims {
		fmt.Fprintf(w, row, map[bool]string{true: "ok", false: "FAIL"}[c.Pass], c.Artifact, c.Shape, c.Measured, c.Band, c.Paper)
		if !c.Pass {
			failed++
		}
	}
	fmt.Fprintln(w)
	return failed
}

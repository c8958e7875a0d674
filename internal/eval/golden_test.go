package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dae/internal/rt"
)

// goldenTraceDigests pins the frequency-independent profile of every
// (app, version) run under the default configuration: the SHA-256 of its
// rt.SaveTrace JSON export. The export format is independent of how traces
// travel between processes, so a transport change that alters any record,
// count or quarantine entry shows up here as a digest change.
var goldenTraceDigests = map[string]string{
	"LU/coupled":            "f959c2e973a8ee624d3ef7a65899c9a7d65cdc2bd828960ed34603b204d8b004",
	"LU/manual-dae":         "483a9d20d51912337cff792fe6e978c78aee547b73bd1927cac1bdff9c170086",
	"LU/compiler-dae":       "13d400f93c59cd963323595605ce5e577aebec30f7a044567bc5b3332dc0c076",
	"Cholesky/coupled":      "2b951bae8df93f59a23d519cf78ee7af703e41b5319b7de5696a8f461f271fba",
	"Cholesky/manual-dae":   "31408409c90f925b37689b431a54e740bde45483d7b29634a82693f7e35d0319",
	"Cholesky/compiler-dae": "5f00cca838ebd3f2f67dc1041595eb8a6c4c8af81049f6a48122a5603794151d",
	"FFT/coupled":           "db2a99fc5d983d42a67bead1be94cf0efa1dd783b73265add5cb0a7144106a9e",
	"FFT/manual-dae":        "cff1ca4b443a3eb0b45a96f833316f9b436334909707d96432562249c0f3b9cc",
	"FFT/compiler-dae":      "9435df85dfeeb2c36bdb5ba5baffd8efb8d64c541dc570471f85915b97e2f99d",
	"LBM/coupled":           "a0b154bb86dfc871ff080ffb3152948e55bdabac9ae6dd59613cb6bead0bf4e3",
	"LBM/manual-dae":        "cab1538c135a9bd4791c6f37b8107290fb189d8a3f8a298026cf5bdf8636849f",
	"LBM/compiler-dae":      "808710b85b1068dd9cfda816706a9fa4476a1f67b56ebf7f81b9bffd0a36df68",
	"LibQ/coupled":          "c8374ac75fab72c4f6de791100b1ccdb1c367b75aac93a9347df2f9830310738",
	"LibQ/manual-dae":       "c6c1b9fe05972393f6809001a5a1b25d18408196a22e45441ad4032339a134a3",
	"LibQ/compiler-dae":     "e01945e863ff4cc988854722a39174351b41ca6ec39b34a79df4520e58c6a75f",
	"Cigar/coupled":         "4153777c763330d70498461c762a9c63c220c66f10fe7b21b2718bc78e982691",
	"Cigar/manual-dae":      "a39febfba24e175a66fdb555f64700c8b1bb15451b29e6b29a0038ae0b5b9e11",
	"Cigar/compiler-dae":    "7166f80f35d23ce1663e1df59b123961a63b0d4c39b8990899cb215301e01a2e",
	"CG/coupled":            "4fe670334c1d08840b2a67a082237dfa3a7cbab4ec666cad2875c9cdb41614cd",
	"CG/manual-dae":         "63cb05e9bd34c77d73bc059db281a5b584dd3537ce4b9d24e192f5d2c71a9bd6",
	"CG/compiler-dae":       "c871361d532d9a1a8f9ad61fe6280d8cf64598eda4537f818389c5fc2d834d60",
}

func TestGoldenTraceDigests(t *testing.T) {
	got := map[string]string{}
	for _, d := range collect(t) {
		for _, run := range []struct {
			kind runKind
			tr   *rt.Trace
		}{{runCAE, d.CAE}, {runManual, d.Manual}, {runAuto, d.Auto}} {
			var buf bytes.Buffer
			if err := rt.SaveTrace(&buf, run.tr); err != nil {
				t.Fatalf("%s/%s: %v", d.Name, run.kind, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[d.Name+"/"+run.kind.String()] = hex.EncodeToString(sum[:])
		}
	}
	if len(got) != 21 {
		t.Fatalf("collected %d runs, want 21", len(got))
	}
	for key, sum := range got {
		if want, ok := goldenTraceDigests[key]; !ok || sum != want {
			t.Errorf("%s: SaveTrace digest %s, want %s", key, sum, want)
		}
	}
	for key := range goldenTraceDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned run was not collected", key)
		}
	}
}

// goldenReportDigests pins the rendered single-app report — the text daerun
// prints and daed returns in every /v1/simulate response — as the SHA-256 of
// FormatRunReport under the default machine, one entry per app.
var goldenReportDigests = map[string]string{
	"LU":       "2caf04efd46d900cf1654045f80da662c2e06d92382bb3901670f14b518743ff",
	"Cholesky": "a4ec36ee90b55ab10814ec5d5123aa2b1a8b2c0e21ab27cedfb1a5d1db195670",
	"FFT":      "3910e2ad524405b99692cfa9d4cf2584cdea600afe6e48181d4468cc2b875b0b",
	"LBM":      "32364a5ec6e2b8bf310aa6d69ab008f49c901722c4ea77c82454bc9523cdb286",
	"LibQ":     "317faecb671a4b02dfd7bb5509d9aad9b443372685476f462863847699d13f64",
	"Cigar":    "d95854d3bf0b83b748c2dab90db559b75ef42f1539e735bea77ac75dcf48e57b",
	"CG":       "5ba603b49e33221646a53230a9ea11bae7dd12943c08598ac6a291a16b4b822c",
}

func TestGoldenReportDigests(t *testing.T) {
	data := collect(t)
	if len(data) != len(goldenReportDigests) {
		t.Errorf("collected %d apps, %d pinned", len(data), len(goldenReportDigests))
	}
	for _, d := range data {
		sum := sha256.Sum256([]byte(FormatRunReport(d, rt.DefaultMachine())))
		if got, want := hex.EncodeToString(sum[:]), goldenReportDigests[d.Name]; got != want {
			t.Errorf("%s: report digest %s, want %s", d.Name, got, want)
		}
	}
}

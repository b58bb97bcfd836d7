package daemon

import (
	"testing"

	"github.com/errscope/grid/internal/classad"
)

// TestJobAdConstructorsRender pins the constructors' exact renderings:
// attribute order and spelling feed the journal and the auto-cluster
// signature, so building the ads from a shared prototype must not
// change a byte.
func TestJobAdConstructorsRender(t *testing.T) {
	for _, tc := range []struct {
		ad   *classad.Ad
		want string
	}{
		{NewJavaJobAd("alice", 128), `[ Universe = "java"; Owner = "alice"; ImageSize = 128; Requirements = (target.HasJava && (target.Memory >= my.ImageSize)); Rank = target.Memory ]`},
		{NewStandardJobAd("bob", 64), `[ Universe = "standard"; Owner = "bob"; ImageSize = 64; Requirements = (target.Memory >= my.ImageSize); Rank = target.Memory ]`},
		{NewVanillaJobAd("carol", 0), `[ Universe = "vanilla"; Owner = "carol"; ImageSize = 0; Requirements = (target.Memory >= my.ImageSize); Rank = target.Memory ]`},
	} {
		if got := tc.ad.String(); got != tc.want {
			t.Errorf("rendered\n  %s\nwant\n  %s", got, tc.want)
		}
	}
}

// TestJobAdsShareCompiledRequirements checks that constructor ads share
// their universe's compiled Requirements — the pre-filter slices alias
// one backing array — and that only a new Requirements expression,
// not an Owner change, gives an ad a compilation of its own.
func TestJobAdsShareCompiledRequirements(t *testing.T) {
	a := NewJavaJobAd("alice", 128)
	b := NewJavaJobAd("bob", 256)
	pa, pb := classad.RequirementsPrefilter(a), classad.RequirementsPrefilter(b)
	if len(pa) == 0 || &pa[0] != &pb[0] {
		t.Fatal("two Java job ads compiled their Requirements separately")
	}

	b.SetString("Owner", "carol")
	if pc := classad.RequirementsPrefilter(b); &pc[0] != &pa[0] {
		t.Error("Set of Owner recompiled Requirements")
	}

	b.MustSetExpr("Requirements", "target.HasJava && target.Memory >= 512")
	pc := classad.RequirementsPrefilter(b)
	if len(pc) == 0 || &pc[0] == &pa[0] {
		t.Error("Set of Requirements to a new expression kept the shared compilation")
	}
	if pa2 := classad.RequirementsPrefilter(a); &pa2[0] != &pa[0] {
		t.Error("changing one ad's Requirements disturbed another's")
	}
}

// TestJobAdConstructorAllocs pins the submit-side cost of a job ad: a
// prototype copy plus two in-place bindings, and a Precompile that
// reuses the shared compilations and only renders the ad (21 at the
// time of writing; 42 when every job built and compiled its own).
func TestJobAdConstructorAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		NewJavaJobAd("alice", 128).Precompile()
	})
	if allocs > 22 {
		t.Errorf("NewJavaJobAd+Precompile allocated %.0f objects, want <= 22", allocs)
	}
}

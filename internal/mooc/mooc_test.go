package mooc

import (
	"math"
	"testing"
)

func TestConceptMapTotals(t *testing.T) {
	cm := ConceptMap()
	concepts, slides, byTopic := ConceptStats(cm)
	if concepts != 102 {
		t.Errorf("concepts = %d, want 102", concepts)
	}
	if slides != 948 {
		t.Errorf("slides = %d, want 948", slides)
	}
	// The Figure 1 BDD snapshot must be present with URP the largest.
	if byTopic["BDDs"] == 0 || byTopic["Computational Boolean Algebra"] == 0 {
		t.Error("missing Figure 1 topics")
	}
	urp := 0
	for _, c := range cm {
		if c.Name == "URP" {
			urp = c.Slides
		}
		if c.Slides <= 0 {
			t.Errorf("concept %q has %d slides", c.Name, c.Slides)
		}
	}
	if urp < 20 {
		t.Errorf("URP should be the big Figure 1 bar, got %d slides", urp)
	}
	// Determinism.
	cm2 := ConceptMap()
	for i := range cm {
		if cm[i] != cm2[i] {
			t.Fatal("concept map not deterministic")
		}
	}
}

func TestLectureCatalog(t *testing.T) {
	ls := Lectures()
	count, hours, avg := LectureStats(ls)
	if count != 69 {
		t.Errorf("lectures = %d, want 69", count)
	}
	if math.Abs(hours-17.25) > 0.01 {
		t.Errorf("total hours = %g, want 17.25", hours)
	}
	if math.Abs(avg-15) > 0.01 {
		t.Errorf("average minutes = %g, want 15", avg)
	}
	// Indices like "1.1" .. and nine topic groups.
	if ls[0].Index != "1.1" || ls[0].Week != 1 {
		t.Errorf("first lecture = %+v", ls[0])
	}
	weeks := map[int]bool{}
	for _, l := range ls {
		weeks[l.Week] = true
		if l.Minutes < 5 || l.Minutes > 35 {
			t.Errorf("lecture %s has unrealistic length %.1f min", l.Index, l.Minutes)
		}
	}
	if len(weeks) != 9 {
		t.Errorf("weeks = %d, want 9 (8 content + tutorials)", len(weeks))
	}
}

func TestEfficiency(t *testing.T) {
	e := CourseEfficiency()
	cf, tf := e.ContentFraction(), e.TimeFraction()
	if cf < 0.5 || cf > 0.7 {
		t.Errorf("content fraction %g outside the paper's 50-60%%-ish band", cf)
	}
	if tf < 0.25 || tf > 0.45 {
		t.Errorf("time fraction %g should be about one third", tf)
	}
}

func TestFunnelMatchesPaper(t *testing.T) {
	c := Simulate(PaperParams(), 1)
	f := c.Funnel()
	within := func(name string, got, want int, tolFrac float64) {
		t.Helper()
		tol := int(float64(want) * tolFrac)
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %d, want %d ± %d", name, got, want, tol)
		}
	}
	if f.Registered != 17500 {
		t.Errorf("registered = %d", f.Registered)
	}
	within("watched video", f.WatchedVideo, 7191, 0.05)
	within("did homework", f.DidHomework, 1377, 0.10)
	within("tried software", f.TriedSoftware, 369, 0.20)
	within("took final", f.TookFinal, 530, 0.20)
	within("certificates", f.Certificates, 386, 0.20)
	// Funnel must be monotone in the obvious places.
	if f.WatchedVideo > f.Registered || f.DidHomework > f.WatchedVideo ||
		f.TriedSoftware > f.DidHomework || f.TookFinal > f.DidHomework {
		t.Errorf("funnel not monotone: %+v", f)
	}
}

func TestViewershipCurve(t *testing.T) {
	c := Simulate(PaperParams(), 2)
	v := c.Viewership()
	if len(v) != 69 {
		t.Fatalf("series length %d", len(v))
	}
	// Paper landmarks: ~7000 watch the intro; ~5000 still watching
	// after a few weeks (lecture ~20); ~2000 watch everything.
	if v[0] < 6500 || v[0] > 7800 {
		t.Errorf("intro viewers = %d, want ~7000", v[0])
	}
	if v[19] < 4200 || v[19] > 5800 {
		t.Errorf("week-3 viewers = %d, want ~5000", v[19])
	}
	last := v[68]
	if last < 1600 || last > 2500 {
		t.Errorf("final-lecture viewers = %d, want ~2000", last)
	}
	// Monotone non-increasing.
	for i := 1; i < len(v); i++ {
		if v[i] > v[i-1] {
			t.Fatalf("viewership increased at %d: %d -> %d", i, v[i-1], v[i])
		}
	}
}

func TestDemographics(t *testing.T) {
	c := Simulate(PaperParams(), 3)
	d := c.Demographics()
	if math.Abs(d.AvgAge-30) > 1 {
		t.Errorf("avg age = %g, want ~30", d.AvgAge)
	}
	if d.MinAge < 15 || d.MaxAge > 75 {
		t.Errorf("age range [%d,%d] outside paper's [15,75]", d.MinAge, d.MaxAge)
	}
	if math.Abs(d.FemaleShare-0.12) > 0.02 {
		t.Errorf("female share = %g, want ~0.12", d.FemaleShare)
	}
	if math.Abs(d.BSShare-0.30) > 0.03 || math.Abs(d.MSPhDShare-0.29) > 0.03 {
		t.Errorf("degrees: BS %g MS %g", d.BSShare, d.MSPhDShare)
	}
	// US and India lead.
	if len(d.TopCountries) < 2 ||
		!(d.TopCountries[0] == "United States" && d.TopCountries[1] == "India") {
		t.Errorf("top countries = %v", d.TopCountries[:2])
	}
	// Worldwide: many countries present.
	if len(d.ByCountry) < 30 {
		t.Errorf("only %d countries", len(d.ByCountry))
	}
	// Brazil and Egypt notable (top 15), per the paper.
	rank := map[string]int{}
	for i, n := range d.TopCountries {
		rank[n] = i
	}
	if rank["Brazil"] > 15 || rank["Egypt"] > 15 {
		t.Errorf("Brazil rank %d, Egypt rank %d", rank["Brazil"], rank["Egypt"])
	}
}

func TestCertificateBreakdown(t *testing.T) {
	c := Simulate(PaperParams(), 5)
	acc, mas := c.CertificateBreakdown()
	f := c.Funnel()
	if acc+mas != f.Certificates {
		t.Errorf("breakdown %d+%d != funnel %d", acc, mas, f.Certificates)
	}
	if mas == 0 {
		t.Error("some Mastery-path certificates expected")
	}
	if acc < mas {
		t.Errorf("Accomplishment (%d) should outnumber Mastery (%d): the software path is rarer", acc, mas)
	}
}

func TestCompetencyEstimate(t *testing.T) {
	c := Simulate(PaperParams(), 4)
	low, high := c.CompetencyEstimate()
	// Paper: "between 500 and 2000 persons with serious EDA competency".
	if low < 300 || high > 2600 || low > high {
		t.Errorf("competency estimate [%d, %d] outside the paper's bracket", low, high)
	}
}

func TestSurveyWordCloud(t *testing.T) {
	resp := SurveyResponses(800, 5)
	if len(resp) != 800 {
		t.Fatal("response count")
	}
	wc := MineWordCloud(resp)
	if len(wc) < 20 {
		t.Fatalf("vocabulary too small: %d", len(wc))
	}
	top := map[string]bool{}
	for _, w := range wc[:12] {
		top[w.Word] = true
	}
	// The figure's big words should be near the top.
	for _, want := range []string{"design", "verification"} {
		if !top[want] {
			t.Errorf("%q missing from top words: %v", want, wc[:12])
		}
	}
	// Counts must be sorted.
	for i := 1; i < len(wc); i++ {
		if wc[i].Count > wc[i-1].Count {
			t.Fatal("word cloud not sorted")
		}
	}
}

func TestHomeworkRandomization(t *testing.T) {
	a1 := GenerateHomework(1, "alice", 5)
	a2 := GenerateHomework(1, "alice", 5)
	b := GenerateHomework(1, "bob", 5)
	if len(a1.Questions) != 5 {
		t.Fatal("question count")
	}
	for i := range a1.Questions {
		if a1.Questions[i].Prompt != a2.Questions[i].Prompt {
			t.Fatal("same user+week should get the same assignment")
		}
	}
	different := false
	for i := range a1.Questions {
		if a1.Questions[i].Prompt != b.Questions[i].Prompt {
			different = true
		}
	}
	if !different {
		t.Error("different users should get different variants")
	}
}

func TestHomeworkSelfGrades(t *testing.T) {
	for week := 1; week <= 10; week++ {
		a := GenerateHomework(week, "carol", 6)
		answers := make([]string, len(a.Questions))
		for i, q := range a.Questions {
			answers[i] = q.Answer
		}
		if got := GradeAssignment(a, answers); got != len(a.Questions) {
			t.Errorf("week %d: reference answers scored %d/%d", week, got, len(a.Questions))
		}
		// Wrong answers score 0: "wrong" is what SimulateGrading submits
		// for a missed question.
		for i := range answers {
			answers[i] = "wrong"
		}
		if got := GradeAssignment(a, answers); got != 0 {
			t.Errorf("week %d: garbage scored %d", week, got)
		}
		// Short answer slice must not panic.
		if got := GradeAssignment(a, nil); got != 0 {
			t.Errorf("week %d: empty answers scored %d", week, got)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	f1 := Simulate(PaperParams(), 42).Funnel()
	f2 := Simulate(PaperParams(), 42).Funnel()
	if f1 != f2 {
		t.Error("same seed should reproduce the cohort")
	}
}

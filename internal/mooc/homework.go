package mooc

import (
	"fmt"
	"math/rand"
	"strings"

	"vlsicad/internal/cube"
)

// Randomized homework generation (Section 2.2): problems are
// over-supplied and each participant receives an individualized
// variant, generated and *graded by the course's own engines* — the
// mechanism that made machine grading rigorous.

// Question is one auto-gradable homework item.
type Question struct {
	ID     string
	Week   int
	Prompt string
	// Check grades a free-text answer.
	Check func(answer string) bool
	// Answer is a correct reference answer (for tests and solutions).
	Answer string
}

// Assignment is one participant's individualized homework.
type Assignment struct {
	Week      int
	User      string
	Questions []Question
}

// questionKind generates question q of a week's assignment from the
// assignment's random stream.
type questionKind func(week, q int, rng *rand.Rand) Question

// urpMix is the unate-recursive-paradigm rotation of Week 1.
var urpMix = []questionKind{tautologyQuestion, cofactorQuestion, satcountQuestion}

// weekMix is each week's question mix: question q of week w is
// mix[(w+q) % len(mix)], and weeks not listed ask urpMix. Week 10 is
// the final exam — "essentially a larger homework" per the paper —
// mixing question types from every week.
var weekMix = map[int][]questionKind{
	2:  {bddNodeCountQuestion, satVerdictQuestion},
	6:  {placementQuestion, routingQuestion},
	7:  {placementQuestion, routingQuestion},
	10: {tautologyQuestion, bddNodeCountQuestion, satVerdictQuestion, placementQuestion, routingQuestion},
}

// GenerateHomework builds the week's assignment for a user. The
// (week, user) pair seeds the variant choice, so every participant
// gets a stable but individual problem set — the paper's "aggressive
// randomization".
func GenerateHomework(week int, user string, questionsPerSet int) Assignment {
	seed := int64(week) * 1_000_003
	for _, r := range user {
		seed = seed*131 + int64(r)
	}
	rng := rand.New(rand.NewSource(seed))
	mix, ok := weekMix[week]
	if !ok {
		mix = urpMix
	}
	a := Assignment{Week: week, User: user}
	for q := 0; q < questionsPerSet; q++ {
		a.Questions = append(a.Questions, mix[(week+q)%len(mix)](week, q, rng))
	}
	return a
}

func randomCover(rng *rand.Rand, n, k int) *cube.Cover {
	f := cube.NewCover(n)
	for i := 0; i < k; i++ {
		c := cube.NewCube(n)
		any := false
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c[v] = cube.Pos
				any = true
			case 1:
				c[v] = cube.Neg
				any = true
			}
		}
		if any {
			f.Add(c)
		}
	}
	return f
}

func coverText(f *cube.Cover) string {
	var rows []string
	for _, c := range f.Cubes {
		rows = append(rows, c.Row())
	}
	return strings.Join(rows, " ")
}

func tautologyQuestion(week, q int, rng *rand.Rand) Question {
	n := 3 + rng.Intn(2)
	f := randomCover(rng, n, 3+rng.Intn(5))
	// Half the time, force a tautology by adding x + x'.
	if rng.Intn(2) == 0 {
		a := cube.NewCube(n)
		a[0] = cube.Pos
		b := cube.NewCube(n)
		b[0] = cube.Neg
		f.Add(a)
		f.Add(b)
	}
	want := f.IsTautology()
	wantStr := "no"
	if want {
		wantStr = "yes"
	}
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf("Is the cover {%s} over %d variables a tautology? (yes/no)",
			coverText(f), n),
		Check: func(ans string) bool {
			switch strings.ToLower(strings.TrimSpace(ans)) {
			case "yes", "true", "1":
				return want
			case "no", "false", "0":
				return !want
			default:
				return false
			}
		},
		Answer: wantStr,
	}
}

func cofactorQuestion(week, q int, rng *rand.Rand) Question {
	n := 3 + rng.Intn(2)
	f := randomCover(rng, n, 2+rng.Intn(4))
	v := rng.Intn(n)
	pos := f.Cofactor(v, true)
	count := len(pos.Minterms())
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf("For the cover {%s} over %d variables, how many minterms does the positive cofactor with respect to x%d have?",
			coverText(f), n, v+1),
		Check: func(ans string) bool {
			return strings.TrimSpace(ans) == fmt.Sprintf("%d", count)
		},
		Answer: fmt.Sprintf("%d", count),
	}
}

func satcountQuestion(week, q int, rng *rand.Rand) Question {
	n := 3 + rng.Intn(2)
	f := randomCover(rng, n, 2+rng.Intn(4))
	count := len(f.Minterms())
	return Question{
		ID:   fmt.Sprintf("hw%d.q%d", week, q+1),
		Week: week,
		Prompt: fmt.Sprintf("How many satisfying assignments does the cover {%s} over %d variables have?",
			coverText(f), n),
		Check: func(ans string) bool {
			return strings.TrimSpace(ans) == fmt.Sprintf("%d", count)
		},
		Answer: fmt.Sprintf("%d", count),
	}
}

// GradeAssignment scores submitted answers (indexed like Questions).
func GradeAssignment(a Assignment, answers []string) (correct int) {
	for i, q := range a.Questions {
		if i < len(answers) && q.Check(answers[i]) {
			correct++
		}
	}
	return correct
}

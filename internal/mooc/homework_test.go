package mooc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func TestWeek2HomeworkSelfGrades(t *testing.T) {
	for _, user := range []string{"x", "y", "zara"} {
		a := GenerateHomework(2, user, 6)
		if len(a.Questions) != 6 {
			t.Fatal("question count")
		}
		answers := make([]string, len(a.Questions))
		for i, q := range a.Questions {
			answers[i] = q.Answer
			if q.Prompt == "" {
				t.Error("empty prompt")
			}
		}
		if got := GradeAssignment(a, answers); got != 6 {
			t.Errorf("user %s: reference answers scored %d/6", user, got)
		}
		for i := range answers {
			answers[i] = "wrong!"
		}
		if got := GradeAssignment(a, answers); got != 0 {
			t.Errorf("user %s: garbage scored %d", user, got)
		}
	}
}

func TestLayoutHomeworkSelfGrades(t *testing.T) {
	for _, user := range []string{"kim", "lee"} {
		for _, week := range []int{6, 7} {
			a := GenerateHomework(week, user, 4)
			if len(a.Questions) != 4 {
				t.Fatal("question count")
			}
			answers := make([]string, len(a.Questions))
			for i, q := range a.Questions {
				answers[i] = q.Answer
			}
			if got := GradeAssignment(a, answers); got != 4 {
				t.Errorf("%s week %d: reference answers scored %d/4", user, week, got)
			}
			for i := range answers {
				answers[i] = "nope"
			}
			if got := GradeAssignment(a, answers); got != 0 {
				t.Errorf("%s week %d: garbage scored %d", user, week, got)
			}
		}
	}
}

func TestFinalExamCoversAllWeeks(t *testing.T) {
	a := GenerateHomework(10, "dana", 10)
	if len(a.Questions) != 10 {
		t.Fatal("question count")
	}
	answers := make([]string, len(a.Questions))
	for i, q := range a.Questions {
		answers[i] = q.Answer
		if q.Week != 10 {
			t.Errorf("question %d tagged week %d", i, q.Week)
		}
	}
	if got := GradeAssignment(a, answers); got != 10 {
		t.Errorf("reference answers scored %d/10", got)
	}
	// The exam must span topic families: look for distinctive prompt
	// fragments from logic, BDD, SAT, placement and routing questions.
	joined := ""
	for _, q := range a.Questions {
		joined += q.Prompt + "\n"
	}
	for _, frag := range []string{"tautology", "ROBDD", "CNF", "quadratic optimum", "two-layer grid"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("final exam missing a %q question", frag)
		}
	}
}

func TestLayoutHomeworkIndividualized(t *testing.T) {
	a := GenerateHomework(6, "kim", 4)
	b := GenerateHomework(6, "lee", 4)
	diff := false
	for i := range a.Questions {
		if a.Questions[i].Prompt != b.Questions[i].Prompt {
			diff = true
		}
	}
	if !diff {
		t.Error("different users should get different layout variants")
	}
}

func TestWeek2HomeworkIndividualized(t *testing.T) {
	a := GenerateHomework(2, "alice", 4)
	b := GenerateHomework(2, "bob", 4)
	diff := false
	for i := range a.Questions {
		if a.Questions[i].Prompt != b.Questions[i].Prompt {
			diff = true
		}
	}
	if !diff {
		t.Error("different users should get different variants")
	}
	a2 := GenerateHomework(2, "alice", 4)
	for i := range a.Questions {
		if a.Questions[i].Prompt != a2.Questions[i].Prompt {
			t.Fatal("same user should get a stable assignment")
		}
	}
}

// homeworkDigest hashes every question of the given weeks' assignments
// for a fixed set of users.
func homeworkDigest(weeks ...int) string {
	h := sha256.New()
	for _, week := range weeks {
		for _, user := range []string{"alice", "bob", "participant-42"} {
			for _, q := range GenerateHomework(week, user, 6).Questions {
				fmt.Fprintf(h, "%s|%d|%s|%s\n", q.ID, q.Week, q.Prompt, q.Answer)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHomeworkURPWeeksPinned pins the URP weeks 1, 3 and 4 to the
// assignments they had before the week table existed, so merging the
// generators changed no participant's homework in those weeks.
func TestHomeworkURPWeeksPinned(t *testing.T) {
	const want = "61fd080aacf5dd37a51005495e11ae22ab7d75cca62cb299df9b2c444d35e038"
	if got := homeworkDigest(1, 3, 4); got != want {
		t.Errorf("weeks 1, 3, 4 digest = %s, want %s", got, want)
	}
}

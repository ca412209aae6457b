"""Known wrong answers, each pinned to Go's answer as a strict expected failure.

Every program below is one the analyzer is known to get wrong: a false
``NoDeadlock``, a false alarm, or an ``Inconclusive`` where Go has an
answer.  Each test expects Go's answer and is marked ``xfail(strict=True)``,
so the suite reports it as an expected failure today and fails the day a
change mends it, when the mark must go.  The reason of each mark names the
ROADMAP entry or the ``FOUND`` line of ``CHANGES.md`` that describes the
gap.
"""

import pytest

from flowcheck.gofront import analyze_source


def go(*lines, funcs=()):
    """A Go program: the package-level ``funcs`` lines, then ``main`` with
    ``lines`` as its body."""
    body = ["package main", ""] + list(funcs)
    body += ["func main() {"] + ["\t" + line for line in lines] + ["}"]
    return "\n".join(body) + "\n"


RECEIVER_CHOICE_FUNCS = (
    "func first(ch chan int, a chan string) {", "\t<-ch", '\ta <- "x"', "}", "",
    "func second(ch chan int) {", "\t<-ch", "}", "",
)
RECEIVER_CHOICE_BODY = (
    "ch := make(chan int)", "a := make(chan string)",
    "go first(ch, a)", "go second(ch)", "ch <- 1", "<-a", "ch <- 2",
)
# the same program with the two go statements swapped
RECEIVER_CHOICE_SWAPPED = tuple(
    {"go first(ch, a)": "go second(ch)", "go second(ch)": "go first(ch, a)"}.get(line, line)
    for line in RECEIVER_CHOICE_BODY
)
RECV_FUNCS = ("func recv(ch chan int) {", "\t<-ch", "}", "")
# Go initializes b before a, which reads it, whatever their order in the file
GLOBAL_ORDER_BODY = ("ch := make(chan int)", "if a > 3 {", "\t<-ch", "}")


def gap(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


PROGRAMS = [
    pytest.param(
        go(*RECEIVER_CHOICE_BODY, funcs=RECEIVER_CHOICE_FUNCS), "Deadlock",
        marks=gap("ROADMAP: the receiver is picked by creation order; if second takes "
                  "the first value, main blocks on <-a"),
        id="receiver-choice",
    ),
    pytest.param(
        go("a := make(chan int)", "b := make(chan string)",
           "go wi(a)", "go ws(b)", "<-b", "<-a",
           funcs=("func wi(c chan int) {", "\tc <- 1", "}", "",
                  "func ws(c chan string) {", '\tc <- "x"', "}", "")),
        "NoDeadlock",
        marks=gap("ROADMAP: a cross-type reorder reads Deadlock; each sender blocks in "
                  "its own goroutine"),
        id="cross-type-reorder",
    ),
    pytest.param(
        go("ch := make(chan int)", "ch <- 1", "<-ch"), "Deadlock",
        marks=gap("FOUND 53: a sender takes its own in-flight value"),
        id="send-then-receive",
    ),
    pytest.param(
        go("ch := make(chan int)", "ch <- 1", "go recv(ch)", funcs=RECV_FUNCS), "Deadlock",
        marks=gap("FOUND 53: a goroutine started after the send takes its value"),
        id="send-then-go-recv",
    ),
    pytest.param(
        go("ch := make(chan int)", "ch <- 1", "recv(ch)", funcs=RECV_FUNCS), "Deadlock",
        marks=gap("FOUND 53: a callee inlined after the send takes its value"),
        id="send-then-call-recv",
    ),
    pytest.param(
        go("ch := make(chan int)", "<-mk(ch)",
           funcs=("func mk(c chan int) chan int {", "\tc <- 1", "\treturn c", "}", "")),
        "Deadlock",
        marks=gap("FOUND 53: the receive on the channel a callee returns takes the "
                  "value the callee sent"),
        id="send-then-return-channel",
    ),
    pytest.param(
        go("a := make(chan int)", "b := make(chan int)", "go func() {", "\ta <- 1", "}()",
           "<-b"),
        "Deadlock",
        marks=gap("ROADMAP: two chan int are one channel to the analysis"),
        id="two-int-channels",
    ),
    pytest.param(
        go("ch := make(chan int)", "go func() {", "\tch <- 1", "}()", "ch = make(chan int)",
           "<-ch"),
        "Deadlock",
        marks=gap("ROADMAP: a reassigned channel is the one the goroutine sends on"),
        id="reassigned-int-channel",
    ),
    pytest.param(
        go("go func() {", "\tch <- 1", "}()", "setup()", "<-ch",
           funcs=("var ch chan int", "",
                  "func setup() {", "\tch = make(chan int)", "}", "")),
        "Deadlock",
        marks=gap("FOUND 43: a global channel some statement assigns is taken as made "
                  "at every use; the goroutine may send on nil"),
        id="assigned-global-channel",
    ),
    pytest.param(
        go("ch := make(chan int)", "x := 1", "func() {", "\tx = 2", "}()", "if x > 1 {",
           "\tgo func() {", "\t\tch <- 1", "\t}()", "}", "<-ch"),
        "NoDeadlock",
        marks=gap("FOUND 46: a literal's assignment to a captured variable is unknown, "
                  "so the x <= 1 case Go never takes reads Deadlock"),
        id="literal-assigns-captured",
    ),
    pytest.param(
        go("ch := make(chan int)", "n = 5", "go f(ch)", "<-ch",
           funcs=("var n = 3", "",
                  "func f(ch chan int) {", "\tif n > 4 {", "\t\tch <- 1", "\t}", "}", "")),
        "NoDeadlock",
        marks=gap("FOUND 48: main's assignment to a global is unknown in f, so the "
                  "n <= 4 case Go never takes reads Deadlock"),
        id="main-assigns-global",
    ),
    pytest.param(
        go("ch := make(chan int)", "go pump(ch)", "fmt.Println(<-ch)",
           funcs=('import "fmt"', "",
                  "func pump(ch chan int) {", "\tch <- 1", "\tch <- 1", "\tgo pump(ch)", "}",
                  "")),
        "NoDeadlock",
        marks=gap("FOUND 14: a self-starting sender feeds itself after main returns and "
                  "hits the step cap"),
        id="pump",
    ),
    pytest.param(
        go(*GLOBAL_ORDER_BODY, funcs=("var a = b", "var b = 1", "")), "NoDeadlock",
        marks=gap("FOUND 71: globals resolve in source order, not in Go's initialization "
                  "order, so a has no value and the a >= 4 case reads Deadlock"),
        id="global-initialization-order",
    ),
    pytest.param(
        go("ch := make(chan int)", "if true {", "\t<-ch", "}") + "\nvar true = false\n",
        "NoDeadlock",
        marks=gap("FOUND 101: a predeclared name that a later global declares is read as "
                  "predeclared, so main's true is not the global false and <-ch runs"),
        id="later-global-true",
    ),
    # not a gap: with b declared first, a is 1 as in Go
    pytest.param(
        go(*GLOBAL_ORDER_BODY, funcs=("var b = 1", "var a = b", "")), "NoDeadlock",
        id="global-declaration-order",
    ),
    # not a gap: with the go statements swapped, the receiver-choice program
    # reads Go's answer
    pytest.param(
        go(*RECEIVER_CHOICE_SWAPPED, funcs=RECEIVER_CHOICE_FUNCS), "Deadlock",
        id="receiver-choice-swapped",
    ),
]


@pytest.mark.parametrize("source, expected", PROGRAMS)
def test_reads_go_answer(source, expected):
    assert analyze_source(source).worst() == expected

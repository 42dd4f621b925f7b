// Package security implements the agent-oriented access control of the
// Naplet system (Section 3.3 of the paper, and the Naplet privilege
// delegation model it references).
//
// The model mirrors the paper's use of user-based (subject-based) access
// control: permissions attach to *who is executing* — a mobile agent subject
// versus the NapletSocket system subject — rather than to where code came
// from. Agent subjects are denied direct socket permissions; the only way an
// agent obtains a NapletSocket is through the controller proxy, which
// authenticates the agent and consults the policy store before allocating
// the socket on the agent's behalf.
package security

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"
	"time"
)

// SubjectKind classifies the source of a request.
type SubjectKind uint8

const (
	// KindAgent is a mobile agent subject; denied raw socket permissions.
	KindAgent SubjectKind = iota + 1
	// KindSystem is the NapletSocket system itself (controller, redirector);
	// granted socket permissions.
	KindSystem
	// KindAdmin is a local administrator subject.
	KindAdmin
)

// String names the kind.
func (k SubjectKind) String() string {
	switch k {
	case KindAgent:
		return "agent"
	case KindSystem:
		return "system"
	case KindAdmin:
		return "admin"
	default:
		return fmt.Sprintf("SubjectKind(%d)", uint8(k))
	}
}

// Subject is the authenticated source of a request.
type Subject struct {
	Kind SubjectKind
	// Name is the agent id for KindAgent, or a role name otherwise.
	Name string
}

// String renders kind:name.
func (s Subject) String() string { return s.Kind.String() + ":" + s.Name }

// Action enumerates the access-controlled operations.
type Action string

// The access-controlled actions of the NapletSocket system.
const (
	// ActionRawSocket is direct creation of a TCP/UDP socket. Always denied
	// to agent subjects; the proxy service holds this permission.
	ActionRawSocket Action = "socket.raw"
	// ActionConnect is opening a NapletSocket to another agent via the
	// proxy.
	ActionConnect Action = "naplet.connect"
	// ActionListen is creating a NapletServerSocket via the proxy.
	ActionListen Action = "naplet.listen"
	// ActionMigrate is departing the host with live connections.
	ActionMigrate Action = "naplet.migrate"
)

// Permission pairs an action with the resource it targets. Resource is an
// agent id for connect ("which agent may I dial"), or "*".
type Permission struct {
	Action   Action
	Resource string
}

// Effect is a policy rule outcome.
type Effect uint8

const (
	// Allow grants the permission.
	Allow Effect = iota + 1
	// Deny refuses the permission; deny rules dominate allow rules.
	Deny
)

// Rule matches a subject and permission pattern. Empty fields and "*" act
// as wildcards.
type Rule struct {
	SubjectKind SubjectKind // 0 matches any kind
	SubjectName string      // "" or "*" matches any name
	Action      Action      // "" matches any action
	Resource    string      // "" or "*" matches any resource
	Effect      Effect
}

func (r Rule) matches(s Subject, p Permission) bool {
	if r.SubjectKind != 0 && r.SubjectKind != s.Kind {
		return false
	}
	if r.SubjectName != "" && r.SubjectName != "*" && r.SubjectName != s.Name {
		return false
	}
	if r.Action != "" && r.Action != p.Action {
		return false
	}
	if r.Resource != "" && r.Resource != "*" && r.Resource != p.Resource {
		return false
	}
	return true
}

// Decision records one access-control check for the audit log.
type Decision struct {
	When       time.Time
	Subject    Subject
	Permission Permission
	Allowed    bool
	Reason     string
}

// Policy decides whether a subject holds a permission.
type Policy interface {
	Grants(s Subject, p Permission) (bool, string)
}

// Store is a rule-based Policy with the paper's defaults baked in:
// system subjects hold all socket permissions, agent subjects hold none
// until explicitly granted NapletSocket-level permissions, and raw socket
// access is never grantable to agents.
type Store struct {
	mu    sync.RWMutex
	rules []Rule
}

// NewStore returns a Store holding the given additional rules.
func NewStore(rules ...Rule) *Store {
	s := &Store{}
	s.rules = append(s.rules, rules...)
	return s
}

// Grants implements Policy. Evaluation order: the hard invariant (agents
// never get raw sockets), then explicit deny rules, then explicit allow
// rules, then kind defaults (system/admin allowed, agents denied).
func (s *Store) Grants(subj Subject, p Permission) (bool, string) {
	if subj.Kind == KindAgent && p.Action == ActionRawSocket {
		return false, "agents may never create raw sockets"
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.rules {
		if r.Effect == Deny && r.matches(subj, p) {
			return false, "explicit deny rule"
		}
	}
	for _, r := range s.rules {
		if r.Effect == Allow && r.matches(subj, p) {
			return true, "explicit allow rule"
		}
	}
	switch subj.Kind {
	case KindSystem, KindAdmin:
		return true, "default allow for " + subj.Kind.String()
	default:
		return false, "default deny for agent subjects"
	}
}

// AllowAgentAll is a convenience rule set granting every agent the proxy
// level permissions (connect/listen/migrate) while keeping raw sockets
// system-only. It models the paper's experimental configuration, where all
// resident agents may use the NapletSocket service.
func AllowAgentAll() []Rule {
	return []Rule{
		{SubjectKind: KindAgent, Action: ActionConnect, Effect: Allow},
		{SubjectKind: KindAgent, Action: ActionListen, Effect: Allow},
		{SubjectKind: KindAgent, Action: ActionMigrate, Effect: Allow},
	}
}

// Errors returned by the guard.
var (
	// ErrAuthentication reports a bad or missing agent credential.
	ErrAuthentication = errors.New("security: authentication failed")
	// ErrDenied reports a policy denial.
	ErrDenied = errors.New("security: permission denied")
)

// CredentialSize is the byte length of an agent credential.
const CredentialSize = sha256.Size

// Guard authenticates agents and enforces policy for one host. Each host
// has its own secret; credentials are HMACs of the agent id under that
// secret, issued when an agent is launched on or docks at the host, and are
// therefore worthless on any other host.
type Guard struct {
	policy Policy
	secret []byte

	mu    sync.Mutex
	audit []Decision
	// maxAudit bounds the audit log.
	maxAudit int
}

// NewGuard creates a Guard with a fresh random host secret.
func NewGuard(policy Policy) (*Guard, error) {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("security: generating host secret: %w", err)
	}
	return &Guard{policy: policy, secret: secret, maxAudit: 1024}, nil
}

// IssueCredential mints the credential for an agent resident on this host.
func (g *Guard) IssueCredential(agentID string) [CredentialSize]byte {
	m := hmac.New(sha256.New, g.secret)
	m.Write([]byte("naplet agent credential"))
	m.Write([]byte(agentID))
	var cred [CredentialSize]byte
	copy(cred[:], m.Sum(nil))
	return cred
}

// Authenticate verifies that cred is the credential this host issued for
// agentID.
func (g *Guard) Authenticate(agentID string, cred [CredentialSize]byte) error {
	want := g.IssueCredential(agentID)
	if subtle.ConstantTimeCompare(want[:], cred[:]) != 1 {
		return fmt.Errorf("%w: bad credential for agent %q", ErrAuthentication, agentID)
	}
	return nil
}

// Check authenticates the agent and verifies the permission, recording the
// decision in the audit log. A nil error means the operation may proceed.
func (g *Guard) Check(agentID string, cred [CredentialSize]byte, p Permission) error {
	subj := Subject{Kind: KindAgent, Name: agentID}
	if err := g.Authenticate(agentID, cred); err != nil {
		g.record(subj, p, false, "authentication failed")
		return err
	}
	allowed, reason := g.policy.Grants(subj, p)
	g.record(subj, p, allowed, reason)
	if !allowed {
		return fmt.Errorf("%w: %s lacks %s on %q (%s)", ErrDenied, subj, p.Action, p.Resource, reason)
	}
	return nil
}

// CheckSystem verifies a system-subject permission (no credential needed;
// system code runs in-process).
func (g *Guard) CheckSystem(p Permission) error {
	subj := Subject{Kind: KindSystem, Name: "napletsocket"}
	allowed, reason := g.policy.Grants(subj, p)
	g.record(subj, p, allowed, reason)
	if !allowed {
		return fmt.Errorf("%w: %s lacks %s (%s)", ErrDenied, subj, p.Action, reason)
	}
	return nil
}

func (g *Guard) record(s Subject, p Permission, allowed bool, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.audit = append(g.audit, Decision{
		When: time.Now(), Subject: s, Permission: p, Allowed: allowed, Reason: reason,
	})
	if len(g.audit) > g.maxAudit {
		g.audit = g.audit[len(g.audit)-g.maxAudit:]
	}
}

// Audit returns a copy of the recorded decisions, oldest first.
func (g *Guard) Audit() []Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Decision, len(g.audit))
	copy(out, g.audit)
	return out
}

(** Birth-death Markov chains for mean time to data loss.

    The standard redundancy-group model: [units] identical components
    fail independently at rate [lambda] and are repaired concurrently
    at rate [mu] each; data is lost the moment more than [tolerated]
    components are simultaneously failed. State [i] = number of failed
    components, absorbing state [tolerated + 1].

    {!mttdl} computes the exact expected absorption time from state 0
    by solving the tridiagonal linear system

    [T_i = 1/r_i + (lambda_i/r_i) T_(i+1) + (mu_i/r_i) T_(i-1)]

    with [lambda_i = (units - i) lambda], [mu_i = i mu],
    [r_i = lambda_i + mu_i], and [T_(tolerated+1) = 0]. *)

val mttdl : units:int -> tolerated:int -> lambda:float -> mu:float -> float
(** Expected hours (if rates are per hour) until more than [tolerated]
    of [units] components are down at once.
    @raise Invalid_argument if [units <= tolerated], [tolerated < 0],
    or a rate is non-positive. *)

val availability_approx :
  units:int -> tolerated:int -> lambda:float -> mu:float -> float
(** Steady-state probability that at most [tolerated] components are
    failed, from the truncated birth-death stationary distribution;
    used to sanity-check the chain and for the quorum-availability
    discussion.
    Tests only: test_reliability checks the exact chain against it. *)

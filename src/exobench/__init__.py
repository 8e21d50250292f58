"""Assistive-control model and psychophysiological benchmarking pipeline.

The package has two halves that meet in the CLI:

* control: a planar stance-dynamics model with friction/ripple lookup
  compensation (``dynamics``), a linear gait-phase regressor
  (``segmentation``), the gain-blended assistance law (``blend``), and a
  synthetic gait simulator with closed-loop replay (``simulator``);
* benchmarking: physiological feature extraction (``biosignal``), fuzzy
  indicator scoring (``fuzzy``), questionnaire scoring
  (``questionnaire``), and report assembly (``report``).
"""

from .biosignal import (FeatureWindow, PhysioSession, detect_beats,
                        gsr_decompose, hr_rmssd, lf_power, respiration_rate,
                        windowed_features)
from .blend import AssistCommand, BlendGains, ControlLoop, blend_gains, gains
from .dynamics import (ACTUATED_JOINTS, ACTUATED_MASK, JOINTS,
                       AccelerationEstimator, CompensationTables, ExoParams,
                       JointState, LookupTable1D, PlanarChain, StanceModel,
                       blended_torque, friction_ripple, gravity_vector,
                       inertia_matrix, load_calibration, save_calibration,
                       stance_torque)
from .fuzzy import (FuzzyModel, NormalizedInputs, PIScores, TriangularMF,
                    default_fuzzy_model, infer, load_fuzzy_model, normalize)
from .questionnaire import (EQDefinition, FactorReport, QuestionnaireResponse,
                            aggregate_reports, consistency, default_definition,
                            factor_score, factor_weights, reverse_map,
                            score_session, subfactor_score)
from .segmentation import (GaitRegressor, TrainingSet, label_from_soles, train,
                           training_session_builder)
from .simulator import (GaitPattern, ReplayResult, SmoothnessReport,
                        TimingReport, generate_cycle,
                        generate_training_protocol, joint_angles, load_share,
                        replay, replay_batch)
from .streams import SensorFrame, SensorStream

__version__ = "0.1.0"
